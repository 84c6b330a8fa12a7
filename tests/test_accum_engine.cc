/**
 * @file
 * Tests of the accumulative (Maiter-style) delta engine: equivalence
 * with the exact references across schedulers and thread counts,
 * conservation of value mass by construction, and survival of the
 * interleaving that breaks the operation-based DeltaState.  The
 * cancel-storm stress lives with the shared pump, in test_run_loop.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
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
