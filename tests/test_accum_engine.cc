/**
 * @file
 * Tests of the accumulative (Maiter-style) delta engine: equivalence
 * with the exact references across schedulers and thread counts,
 * conservation of value mass by construction, the wake-up contract,
 * the block-level kernel's pre-combining, and survival of the
 * interleavings that break the operation-based DeltaState.  The
 * cancel-storm stress lives with the shared pump, in test_run_loop.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/scheduler.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"
#include "runtime/executor.hh"

namespace graphabcd {
namespace {

/** Ring + random chords: out-degree >= 1 everywhere, so no PageRank
 *  mass drains through dangling vertices and conservation is exact. */
EdgeList
ringWithChords(VertexId n, EdgeId chords, Rng &rng)
{
    EdgeList el = generateCycle(n);
    for (EdgeId i = 0; i < chords; i++) {
        const auto src = static_cast<VertexId>(rng.nextBounded(n));
        const auto dst = static_cast<VertexId>(rng.nextBounded(n));
        el.addEdge(src, dst);
    }
    return el;
}

// --------------------------------------------- scheduler/thread sweep

struct AccumCase
{
    std::uint32_t threads;
    Schedule schedule;
};

std::string
caseName(const testing::TestParamInfo<AccumCase> &info)
{
    return std::string("t") + std::to_string(info.param.threads) + "_" +
           to_string(info.param.schedule);
}

class AccumSweep : public testing::TestWithParam<AccumCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = 16;
        opt.numThreads = GetParam().threads;
        opt.schedule = GetParam().schedule;
        opt.tolerance = 1e-12;
        return opt;
    }
};

TEST_P(AccumSweep, PageRankMatchesReference)
{
    Rng rng(81);
    // Prime |V|: the last block is ragged, catching begin/end mix-ups.
    EdgeList el = generateRmat(211, 1700, rng);
    EngineOptions opt = options();
    BlockPartition g(el, opt.blockSize);

    AccumEngine<PageRankProgram> engine(
        g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.vertexUpdates, 0u);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(AccumSweep, SsspMatchesDijkstra)
{
    Rng rng(82);
    EdgeList el = generateRmat(211, 1700, rng, {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    AccumEngine<SsspProgram> engine(g, SsspProgram(0), opt);
    std::vector<double> dist;
    EngineReport report = engine.run(dist);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = dijkstraReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersAndThreads, AccumSweep,
    testing::Values(AccumCase{1, Schedule::Cyclic},
                    AccumCase{1, Schedule::Priority},
                    AccumCase{2, Schedule::Cyclic},
                    AccumCase{2, Schedule::Priority},
                    AccumCase{4, Schedule::Priority},
                    AccumCase{8, Schedule::Cyclic},
                    AccumCase{8, Schedule::Priority}),
    caseName);

TEST(AccumEngine, BfsMatchesReference)
{
    Rng rng(83);
    EdgeList el = generateRmat(300, 2400, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.numThreads = 4;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    AccumEngine<BfsProgram> engine(g, BfsProgram(0), opt);
    std::vector<double> depth;
    EngineReport report = engine.run(depth);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = bfsReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(depth[v], ref[v]) << "vertex " << v;
}

TEST(AccumEngine, ConnectedComponentsMatchUnionFind)
{
    Rng rng(84);
    EdgeList el = generateErdosRenyi(300, 250, rng);
    EdgeList sym = el.symmetrized();
    EngineOptions opt;
    opt.blockSize = 32;
    opt.numThreads = 4;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-9;
    BlockPartition g(sym, opt.blockSize);

    AccumEngine<CcProgram> engine(g, CcProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = ccReference(el);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(labels[v], ref[v]) << "vertex " << v;
}

TEST(AccumEngine, RepeatedThreadedRunsAreStable)
{
    Rng rng(85);
    EdgeList el = generateRmat(200, 1500, rng);
    EngineOptions opt;
    opt.blockSize = 8;
    opt.numThreads = 4;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);
    std::vector<double> ref = pagerankReference(el, 0.85);

    for (int run = 0; run < 5; run++) {
        AccumEngine<PageRankProgram> engine(
            g, PageRankProgram(0.85), opt);
        std::vector<double> x;
        engine.run(x);
        for (VertexId v = 0; v < el.numVertices(); v++)
            ASSERT_NEAR(x[v], ref[v], 1e-6) << "run " << run;
    }
}

// -------------------------------------------------------- conservation

/** sum(values) + sum(pending)/(1-alpha) over the engine's final state. */
double
conservedMass(const std::vector<double> &values,
              const std::vector<double> &pending, double alpha)
{
    double v = 0.0, p = 0.0;
    for (double x : values)
        v += x;
    for (double d : pending)
        p += d;
    return v + p / (1.0 - alpha);
}

TEST(AccumConservation, ConvergedRunKeepsAllRankMass)
{
    const double alpha = 0.85;
    Rng rng(86);
    EdgeList el = ringWithChords(127, 400, rng);   // prime |V|
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 4;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);

    AccumEngine<PageRankProgram> engine(
        g, PageRankProgram(alpha), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    // The invariant holds including the sub-tolerance mass folded back
    // into the accumulators, and the folded remainder is so small that
    // the values alone carry ~all of the mass.
    EXPECT_NEAR(conservedMass(x, engine.pendingSnapshot(), alpha), 1.0,
                1e-9);
    double mass = 0.0;
    for (double v : x)
        mass += v;
    EXPECT_NEAR(mass, 1.0, 1e-8);
}

TEST(AccumConservation, BudgetHaltedRunStillConserves)
{
    // Mid-flight state is conserved too: halt long before convergence
    // and audit values + accumulators.  (This is the property the
    // dropped-residual bug violated: mass left the system silently.)
    const double alpha = 0.85;
    Rng rng(87);
    EdgeList el = ringWithChords(127, 400, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    opt.tolerance = 1e-12;
    opt.maxEpochs = 2.0;   // nowhere near the fixpoint
    BlockPartition g(el, opt.blockSize);

    AccumEngine<PageRankProgram> engine(
        g, PageRankProgram(alpha), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_FALSE(report.converged);
    EXPECT_FALSE(report.stopped);   // budget, not token

    EXPECT_NEAR(conservedMass(x, engine.pendingSnapshot(), alpha), 1.0,
                1e-9);
}

/** @return whether every vertex's pending would move its value by at
 *  most tol — what a quiesced run must leave behind. */
template <typename P>
bool
noSuperTolerancePending(const P &p, const std::vector<double> &values,
                        const std::vector<double> &pending, double tol,
                        VertexId &bad)
{
    for (VertexId v = 0; v < values.size(); v++) {
        if (p.delta(values[v], p.combine(values[v], pending[v])) > tol) {
            bad = v;
            return false;
        }
    }
    return true;
}

TEST(AccumConservation, ConvergedRunLeavesNoSuperTolerancePending)
{
    // The wake-up contract: every combine into an accumulator runs the
    // activation filter on the exact total, so a run that quiesces
    // leaves no vertex whose pending would still move it by more than
    // tol.  Repeated at 1, 2 and 4 participants for PR and SSSP.
    Rng rng(94);
    EdgeList el = generateRmat(1024, 8192, rng, {.weighted = true});
    EngineOptions opt;
    opt.blockSize = 16;
    opt.tolerance = 1e-7;
    opt.executor = std::make_shared<Executor>(3);
    BlockPartition g(el, opt.blockSize);
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        opt.numThreads = threads;
        for (int run = 0; run < 8; run++) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " run " +
                         std::to_string(run));
            VertexId bad = 0;
            PageRankProgram pr(0.85);
            AccumEngine<PageRankProgram> pr_engine(g, pr, opt);
            std::vector<double> x;
            ASSERT_TRUE(pr_engine.run(x).converged);
            EXPECT_TRUE(noSuperTolerancePending(
                pr, x, pr_engine.pendingSnapshot(), opt.tolerance, bad))
                << "pr vertex " << bad;

            SsspProgram sssp(0);
            AccumEngine<SsspProgram> sssp_engine(g, sssp, opt);
            std::vector<double> dist;
            ASSERT_TRUE(sssp_engine.run(dist).converged);
            EXPECT_TRUE(noSuperTolerancePending(
                sssp, dist, sssp_engine.pendingSnapshot(), opt.tolerance,
                bad))
                << "sssp vertex " << bad;
        }
    }
}

// ------------------------------------------------- block-level kernel

template <typename P>
using ScratchOf = typename AccumState<P>::Scratch;

/** @return whether the buffer holds no delta: every slot at the
 *  identity (or not yet sized) and no destination listed. */
template <typename P>
bool
bufferIsClean(const ScratchOf<P> &scratch, const P &p)
{
    return scratch.blocks.empty() &&
           std::all_of(scratch.touched.begin(), scratch.touched.end(),
                       [](const auto &list) { return list.empty(); }) &&
           std::all_of(scratch.buffer.begin(), scratch.buffer.end(),
                       [&p](auto x) { return x == p.identity(); });
}

/** Add every activation to `batch`. */
auto
into(BlockActivations &batch)
{
    return [&batch](BlockId db, double mag) { batch.add(db, mag); };
}

/** Drive `state` to quiescence block by block on one scratch, calling
 *  after_block(scratch) between blocks. */
template <typename P>
void
drainByBlocks(AccumState<P> &state, const P &p, const BlockPartition &g,
              double tol, Schedule schedule,
              const std::function<void(const ScratchOf<P> &)> &after_block)
{
    auto sched = makeSeededScheduler(schedule, g.numBlocks(), 1);
    ScratchOf<P> scratch;
    BlockActivations batch(g.numBlocks());
    int blocks = 0;
    while (auto b = sched->next()) {
        ASSERT_LT(blocks++, 1000000) << "no quiescence";
        state.processBlock(p, *b, tol, into(batch), scratch);
        batch.commit(*sched);
        after_block(scratch);
    }
}

TEST(AccumCombiner, CleanAndConservingAfterEveryBlock)
{
    // Between blocks no delta may sit in a buffer, so values plus
    // accumulators carry all rank mass after every block, not only at
    // the fixpoint.
    const double alpha = 0.85;
    Rng rng(91);
    EdgeList el = ringWithChords(127, 600, rng);
    BlockPartition g(el, 8);
    PageRankProgram p(alpha);
    for (Schedule schedule : {Schedule::Cyclic, Schedule::Priority}) {
        AccumState<PageRankProgram> state(g, p);
        int checked = 0;
        drainByBlocks<PageRankProgram>(
            state, p, g, 1e-13, schedule,
            [&](const ScratchOf<PageRankProgram> &scratch) {
                ASSERT_TRUE(bufferIsClean(scratch, p))
                    << "block " << checked;
                ASSERT_NEAR(conservedMass(state.valuesSnapshot(),
                                          state.pendingSnapshot(), alpha),
                            1.0, 1e-10)
                    << "block " << checked;
                checked++;
            });
        EXPECT_GT(checked, static_cast<int>(g.numBlocks()));

        std::vector<double> ref = pagerankReference(el, alpha);
        std::vector<double> x = state.valuesSnapshot();
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(x[v], ref[v], 1e-7) << "vertex " << v;
    }
}

TEST(AccumCombiner, SharedCombinesCountDistinctDestinations)
{
    // Block 0 = {0..3}, block 1 = {4..7}, block 2 = {8..11}.  Sources 0
    // and 1 share the destinations 4, 5 and 8; 1 also reaches 6, 2
    // reaches 9, and 0 feeds 1 inside the block.  Nine edge traversals,
    // but five combines into other blocks' accumulators (4, 5, 6, 8,
    // 9), under one lock per destination block.
    const double alpha = 0.85;
    EdgeList el(12);
    for (auto [src, dst] : std::vector<std::pair<VertexId, VertexId>>{
             {0, 4}, {0, 5}, {0, 8}, {0, 1}, {1, 4}, {1, 5}, {1, 6},
             {1, 8}, {2, 9}})
        el.addEdge(src, dst);
    BlockPartition g(el, 4);
    ASSERT_EQ(g.numBlocks(), 3u);
    PageRankProgram p(alpha);
    AccumState<PageRankProgram> state(g, p);
    const double teleport = state.pendingAt(0);

    ScratchOf<PageRankProgram> scratch;
    std::vector<int> woken(g.numBlocks(), 0);
    const auto r = state.processBlock(
        p, 0, 0.0, [&woken](BlockId db, double) { woken[db]++; },
        scratch);
    EXPECT_EQ(r.work.vertices, 4u);
    EXPECT_EQ(r.work.edges, 9u);
    EXPECT_EQ(r.work.scatters, 5u);
    EXPECT_EQ(r.folded, 0u);
    EXPECT_TRUE(bufferIsClean(scratch, p));

    // Each destination received every source's delta in one combine.
    const double d0 = teleport;
    const double d1 = teleport + alpha * d0 / 4.0;
    const double d2 = teleport;
    EXPECT_NEAR(state.pendingAt(4), teleport + alpha * (d0 / 4.0 +
                                                        d1 / 4.0),
                1e-15);
    EXPECT_NEAR(state.pendingAt(5), state.pendingAt(4), 1e-15);
    EXPECT_NEAR(state.pendingAt(8), state.pendingAt(4), 1e-15);
    EXPECT_NEAR(state.pendingAt(6), teleport + alpha * d1 / 4.0, 1e-15);
    EXPECT_NEAR(state.pendingAt(9), teleport + alpha * d2, 1e-15);
    // Vertex 1 absorbed 0's delta in the same pass, so block 0 holds
    // nothing to wake for; blocks 1 and 2 were woken once each.
    for (VertexId v = 0; v < 4; v++)
        EXPECT_DOUBLE_EQ(state.pendingAt(v), 0.0) << "vertex " << v;
    EXPECT_EQ(woken, (std::vector<int>{0, 1, 1}));
}

TEST(AccumCombiner, EngineScatterWritesCountSharedCombines)
{
    // Larger blocks see more sources per destination, so the combines
    // into other blocks fall below the edge traversals.
    Rng rng(92);
    EdgeList el = generateRmat(1024, 16384, rng);
    EngineOptions opt;
    opt.blockSize = 256;
    opt.numThreads = 2;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);
    AccumEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    const EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.scatterWrites, 0u);
    EXPECT_LT(report.scatterWrites, report.edgeTraversals);
}

TEST(AccumCombiner, SsspMatchesDijkstraBlockByBlock)
{
    // Min accumulation pre-combines too: the buffer keeps the best
    // candidate per destination.
    Rng rng(93);
    EdgeList el = generateRmat(211, 1700, rng, {.weighted = true});
    BlockPartition g(el, 16);
    SsspProgram p(0);
    for (Schedule schedule : {Schedule::Cyclic, Schedule::Priority}) {
        AccumState<SsspProgram> state(g, p);
        drainByBlocks<SsspProgram>(
            state, p, g, 1e-9, schedule,
            [&](const ScratchOf<SsspProgram> &scratch) {
                ASSERT_TRUE(bufferIsClean(scratch, p));
            });
        std::vector<double> ref = dijkstraReference(el, 0);
        std::vector<double> dist = state.valuesSnapshot();
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
    }
}

// ------------------------------------------- adversarial interleaving

TEST(AccumState, SurvivesTheInterleavingThatBreaksDeltaState)
{
    // DeltaState's lost-update anomaly (test_delta_lp.cc): block A
    // gathers, block B scatters into A's slice, A's commit consumes the
    // slice and destroys B's increments.  AccumState has no such
    // window — a block's accumulators move to the kernel's buffer and
    // back under the block's lock, and every delta into another block
    // lands under that block's lock — so the equivalent schedule
    // (process A, process B which scatters into A, in any order and
    // with re-claiming) conserves mass after EVERY block and still
    // reaches the exact fixpoint.
    const double alpha = 0.85;
    Rng rng(113);   // the DeltaState anomaly test's graph scale; ring
                    // base keeps every vertex non-dangling so the
                    // conservation check is exact
    EdgeList el = ringWithChords(64, 448, rng);
    BlockPartition g(el, 8);
    PageRankProgram p(alpha);
    AccumState<PageRankProgram> state(g, p);
    ScratchOf<PageRankProgram> scratch;
    auto ignore = [](BlockId, double) {};

    auto conserved = [&] {
        return conservedMass(state.valuesSnapshot(),
                             state.pendingSnapshot(), alpha);
    };
    ASSERT_NEAR(conserved(), 1.0, 1e-12);

    // Adversarial order: random blocks, re-claimed arbitrarily often,
    // checked after every single block.
    for (int step = 0; step < 1000; step++) {
        const auto b =
            static_cast<BlockId>(rng.nextBounded(g.numBlocks()));
        state.processBlock(p, b, 1e-13, ignore, scratch);
        ASSERT_NEAR(conserved(), 1.0, 1e-10) << "step " << step;
    }

    // Drive the remainder to quiescence with block sweeps.
    bool moved = true;
    int sweeps = 0;
    while (moved && sweeps++ < 10000) {
        moved = false;
        for (BlockId b = 0; b < g.numBlocks(); b++) {
            moved = state.processBlock(p, b, 1e-13, ignore, scratch)
                            .work.vertices > 0 ||
                    moved;
        }
    }
    ASSERT_LT(sweeps, 10000);

    std::vector<double> ref = pagerankReference(el, alpha);
    std::vector<double> x = state.valuesSnapshot();
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7) << "vertex " << v;
    EXPECT_NEAR(conserved(), 1.0, 1e-10);
}

TEST(AccumState, TwoParticipantsScatterIntoEachOtherInFlight)
{
    // Two blocks, each mostly feeding the other, processed at the same
    // time by two participants each round: one flushes into the other's
    // accumulators while the other holds them in its buffer.  After
    // every round no mass is lost or duplicated, and every vertex whose
    // pending would move it by more than tol has its block in one of
    // the round's activation batches (the wake-up contract).
    const double alpha = 0.85, tol = 1e-13;
    constexpr VertexId kHalf = 2048;
    Rng rng(95);
    EdgeList el = generateCycle(2 * kHalf);
    for (int i = 0; i < 6 * static_cast<int>(kHalf); i++) {
        const auto src = static_cast<VertexId>(rng.nextBounded(2 * kHalf));
        const auto off = static_cast<VertexId>(rng.nextBounded(kHalf));
        el.addEdge(src, (src < kHalf ? kHalf : 0) + off);
    }
    BlockPartition g(el, kHalf);
    ASSERT_EQ(g.numBlocks(), 2u);
    PageRankProgram p(alpha);
    AccumState<PageRankProgram> state(g, p);
    ScratchOf<PageRankProgram> scratch[2];

    for (int round = 0; round < 60; round++) {
        BlockActivations batch[2] = {BlockActivations(2),
                                     BlockActivations(2)};
        std::atomic<int> ready{0};
        auto participant = [&](BlockId b) {
            ready.fetch_add(1);
            while (ready.load() < 2) {
            }
            state.processBlock(p, b, tol, into(batch[b]), scratch[b]);
        };
        std::thread other(participant, BlockId{1});
        participant(0);
        other.join();

        ASSERT_NEAR(conservedMass(state.valuesSnapshot(),
                                  state.pendingSnapshot(), alpha),
                    1.0, 1e-10)
            << "round " << round;
        std::vector<bool> woken(2, false);
        for (BlockActivations &bt : batch)
            bt.flush([&woken](BlockId b, double) { woken[b] = true; });
        const std::vector<double> x = state.valuesSnapshot();
        const std::vector<double> pending = state.pendingSnapshot();
        for (VertexId v = 0; v < 2 * kHalf; v++) {
            if (p.delta(x[v], p.combine(x[v], pending[v])) > tol) {
                ASSERT_TRUE(woken[g.blockOf(v)])
                    << "round " << round << " vertex " << v;
            }
        }
    }

    drainByBlocks<PageRankProgram>(state, p, g, tol, Schedule::Cyclic,
                                   [](const auto &) {});
    std::vector<double> ref = pagerankReference(el, alpha);
    std::vector<double> x = state.valuesSnapshot();
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7) << "vertex " << v;
}

TEST(AccumState, SubToleranceResidualIsFoldedBackNotDropped)
{
    // Directly pin the fold-back: a pending delta too small to apply
    // must stay in the accumulator, not vanish.
    EdgeList el = generateCycle(8);
    BlockPartition g(el, 4);
    PageRankProgram p(0.85);
    AccumState<PageRankProgram> state(g, p);
    ScratchOf<PageRankProgram> scratch;
    int wakes = 0;
    auto count = [&wakes](BlockId, double) { wakes++; };

    const double before = state.pendingAt(3);
    ASSERT_GT(before, 0.0);
    auto r = state.processBlock(p, 0, /*tol=*/1.0, count, scratch);
    EXPECT_EQ(r.folded, 4u);
    EXPECT_EQ(r.work.vertices, 0u);
    EXPECT_EQ(r.work.scatters, 0u);            // no downstream noise
    EXPECT_EQ(wakes, 0);                       // nothing passes the filter
    EXPECT_DOUBLE_EQ(state.pendingAt(3), before); // mass still there
    EXPECT_DOUBLE_EQ(state.value(3), 0.0);        // value untouched

    // At tol 0 every vertex applies; 1..3 absorb their in-block
    // arrivals in the same pass, so a second claim finds the block
    // idle and does nothing.
    auto r2 = state.processBlock(p, 0, /*tol=*/0.0, count, scratch);
    EXPECT_EQ(r2.work.vertices, 4u);
    EXPECT_EQ(r2.folded, 0u);
    auto r3 = state.processBlock(p, 0, /*tol=*/0.0, count, scratch);
    EXPECT_EQ(r3.work.vertices, 0u);
    EXPECT_EQ(r3.folded, 0u);
    EXPECT_TRUE(bufferIsClean(scratch, p));
}

// --------------------------------------------------- halts and budget

TEST(AccumEngineStop, StopTokenHaltsWithoutClaimingConvergence)
{
    Rng rng(88);
    EdgeList el = generateRmat(300, 2400, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 4;
    opt.schedule = Schedule::Priority;
    opt.tolerance = -1.0;   // magnitudes >= 0 never beat this: endless
    opt.maxEpochs = 1e9;
    StopSource source;
    opt.stop = source.token();
    BlockPartition g(el, opt.blockSize);
    AccumEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

    std::thread canceller([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        source.requestStop();
    });
    std::vector<double> x;
    EngineReport report = engine.run(x);
    canceller.join();
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
    ASSERT_EQ(x.size(), el.numVertices());
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_TRUE(std::isfinite(x[v])) << "vertex " << v;
}

TEST(AccumEngineStop, UpdateBudgetHaltsTheRun)
{
    Rng rng(89);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    opt.tolerance = -1.0;   // endless without the budget
    opt.maxEpochs = 3.0;
    BlockPartition g(el, opt.blockSize);
    AccumEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_FALSE(report.converged);
    EXPECT_FALSE(report.stopped);
    // Overshoot is bounded by the in-flight quantum, not unbounded.
    EXPECT_LT(report.epochs, 3.0 + 2.0);
}

} // namespace
} // namespace graphabcd
