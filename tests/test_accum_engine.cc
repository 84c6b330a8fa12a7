/**
 * @file
 * Tests of the accumulative (Maiter-style) delta engine: equivalence
 * with the exact references across schedulers and thread counts,
 * conservation of value mass by construction, the block-local delta
 * combiner, and survival of the interleaving that breaks the
 * operation-based DeltaState.  The cancel-storm stress lives with the
 * shared pump, in test_run_loop.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/scheduler.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"

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

// ----------------------------------------------------------- combiner

template <typename P>
using ScratchOf = typename AccumState<P>::Scratch;

/** @return whether the combiner holds no delta: every slot at the
 *  identity (or not yet sized) and no destination listed. */
template <typename P>
bool
combinerIsClean(const ScratchOf<P> &scratch, const P &p)
{
    return scratch.touched.empty() &&
           std::all_of(scratch.combined.begin(), scratch.combined.end(),
                       [&p](auto x) { return x == p.identity(); });
}

/** The engine's block kernel on one thread: extract-apply-scatter each
 *  vertex of b with the participant's scratch, then flush.
 *  @return shared-accumulator combines, direct plus flushed. */
template <typename P>
std::uint64_t
runBlock(AccumState<P> &state, const P &p, const BlockPartition &g,
         BlockId b, double tol, ScratchOf<P> &scratch,
         BlockActivations &batch)
{
    auto on_activate = [&batch](BlockId db, double mag) {
        batch.add(db, mag);
    };
    std::uint64_t combines = 0;
    for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++)
        combines += state.processVertex(p, v, tol, on_activate, scratch)
                        .scatters;
    return combines + state.flush(p, tol, on_activate, scratch);
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
        runBlock(state, p, g, *b, tol, scratch, batch);
        batch.commit(*sched);
        after_block(scratch);
    }
}

TEST(AccumCombiner, CleanAndConservingAfterEveryBlock)
{
    // Between blocks no delta may sit in the combiner, so values plus
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
                ASSERT_TRUE(combinerIsClean(scratch, p))
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
    // Block 0 = {0..3}, block 1 = {4..7}.  Sources 0 and 1 share the
    // out-of-block destinations 4 and 5; 1 also reaches 6, and 0 feeds
    // 1 inside the block.  Six edge traversals, but four shared
    // combines: one direct (0 -> 1) and one flushed per distinct
    // destination 4, 5, 6.
    const double alpha = 0.85;
    EdgeList el(8);
    for (auto [src, dst] : std::vector<std::pair<VertexId, VertexId>>{
             {0, 4}, {0, 5}, {0, 1}, {1, 4}, {1, 5}, {1, 6}})
        el.addEdge(src, dst);
    BlockPartition g(el, 4);
    ASSERT_EQ(g.numBlocks(), 2u);
    PageRankProgram p(alpha);
    AccumState<PageRankProgram> state(g, p);
    const double teleport = state.pendingAt(0);

    ScratchOf<PageRankProgram> scratch;
    BlockActivations batch(g.numBlocks());
    auto on_activate = [&batch](BlockId db, double mag) {
        batch.add(db, mag);
    };
    std::uint64_t direct = 0;
    for (VertexId v = 0; v < 4; v++)
        direct += state.processVertex(p, v, 0.0, on_activate, scratch)
                      .scatters;
    EXPECT_EQ(direct, 1u);
    ASSERT_EQ(scratch.touched.size(), 3u);
    // Nothing left the combiner yet.
    EXPECT_DOUBLE_EQ(state.pendingAt(4), teleport);
    EXPECT_EQ(state.flush(p, 0.0, on_activate, scratch), 3u);
    EXPECT_TRUE(combinerIsClean(scratch, p));

    // Each destination received both sources' deltas in one combine.
    const double d0 = teleport;
    const double d1 = teleport + alpha * d0 / 3.0;
    EXPECT_NEAR(state.pendingAt(4), teleport + alpha * (d0 + d1) / 3.0,
                1e-15);
    EXPECT_NEAR(state.pendingAt(5), state.pendingAt(4), 1e-15);
    EXPECT_NEAR(state.pendingAt(6), teleport + alpha * d1 / 3.0, 1e-15);
    // The flush woke block 1 (and the direct combine block 0) once.
    EXPECT_EQ(batch.size(), 2u);
}

TEST(AccumCombiner, EngineScatterWritesCountSharedCombines)
{
    // Larger blocks see more sources per destination, so the shared
    // combines fall below the edge traversals.
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
    // Min accumulation pre-combines too: the combiner keeps the best
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
                ASSERT_TRUE(combinerIsClean(scratch, p));
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
    // slice and destroys B's increments.  AccumState has no gather/
    // consume window — extraction is one exchange, scatter is one
    // combine — so the equivalent schedule (process A, process B which
    // scatters into A, in any order and with re-processing) conserves
    // mass after EVERY step and still reaches the exact fixpoint.
    const double alpha = 0.85;
    Rng rng(113);   // the DeltaState anomaly test's graph scale; ring
                    // base keeps every vertex non-dangling so the
                    // conservation check is exact
    EdgeList el = ringWithChords(64, 448, rng);
    BlockPartition g(el, 8);
    PageRankProgram p(alpha);
    AccumState<PageRankProgram> state(g, p);

    auto conserved = [&] {
        return conservedMass(state.valuesSnapshot(),
                             state.pendingSnapshot(), alpha);
    };
    ASSERT_NEAR(conserved(), 1.0, 1e-12);

    // Adversarial order: random vertices, re-processed arbitrarily
    // often, checked after every single extract-apply-scatter.
    for (int step = 0; step < 4000; step++) {
        const auto v = static_cast<VertexId>(
            rng.nextBounded(el.numVertices()));
        state.processVertex(p, v, 1e-13, [](VertexId, double) {});
        ASSERT_NEAR(conserved(), 1.0, 1e-10) << "step " << step;
    }

    // Drive the remainder to quiescence with a worklist sweep.
    bool moved = true;
    int sweeps = 0;
    while (moved && sweeps++ < 10000) {
        moved = false;
        for (VertexId v = 0; v < el.numVertices(); v++) {
            auto r = state.processVertex(p, v, 1e-13,
                                         [](VertexId, double) {});
            moved = moved || r.outcome == AccumOutcome::Applied;
        }
    }
    ASSERT_LT(sweeps, 10000);

    std::vector<double> ref = pagerankReference(el, alpha);
    std::vector<double> x = state.valuesSnapshot();
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7) << "vertex " << v;
    EXPECT_NEAR(conserved(), 1.0, 1e-10);
}

TEST(AccumState, SubToleranceResidualIsFoldedBackNotDropped)
{
    // Directly pin the fold-back: a pending delta too small to apply
    // must return to the accumulator (Folded), not vanish.
    EdgeList el = generateCycle(8);
    BlockPartition g(el, 4);
    PageRankProgram p(0.85);
    AccumState<PageRankProgram> state(g, p);

    const VertexId v = 3;
    const double before = state.pendingAt(v);
    ASSERT_GT(before, 0.0);
    auto r = state.processVertex(p, v, /*tol=*/1.0,
                                 [](VertexId, double) {});
    EXPECT_EQ(r.outcome, AccumOutcome::Folded);
    EXPECT_EQ(r.scatters, 0u);                    // no downstream noise
    EXPECT_DOUBLE_EQ(state.pendingAt(v), before); // mass still there
    EXPECT_DOUBLE_EQ(state.value(v), 0.0);        // value untouched

    // An idle accumulator reports Idle and does nothing.
    auto r2 = state.processVertex(p, v, /*tol=*/0.0,
                                  [](VertexId, double) {});
    EXPECT_EQ(r2.outcome, AccumOutcome::Applied);
    auto r3 = state.processVertex(p, v, /*tol=*/0.0,
                                  [](VertexId, double) {});
    EXPECT_EQ(r3.outcome, AccumOutcome::Idle);
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
