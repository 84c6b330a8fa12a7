/**
 * @file
 * Tests of the threaded asynchronous engine: the barrierless, lock-free
 * execution must reach the same fixed points as the serial engine and
 * the exact references, under every execution mode and thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/async_engine.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"

namespace graphabcd {
namespace {

struct AsyncCase
{
    std::uint32_t threads;
    ExecMode mode;
};

std::string
caseName(const testing::TestParamInfo<AsyncCase> &info)
{
    return std::string("t") + std::to_string(info.param.threads) + "_" +
           to_string(info.param.mode);
}

class AsyncSweep : public testing::TestWithParam<AsyncCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.numThreads = GetParam().threads;
        opt.mode = GetParam().mode;
        opt.tolerance = 1e-12;
        return opt;
    }
};

TEST_P(AsyncSweep, PageRankMatchesReference)
{
    Rng rng(51);
    EdgeList el = generateRmat(400, 3200, rng);
    EngineOptions opt = options();
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(AsyncSweep, SsspMatchesDijkstra)
{
    Rng rng(52);
    EdgeList el = generateRmat(400, 3200, rng, {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<SsspProgram> engine(g, SsspProgram(0), opt);
    std::vector<double> dist;
    EngineReport report = engine.run(dist);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = dijkstraReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

/**
 * Probe program: counts how many copies of each block are being
 * processed at once (a copy enters at the block's first vertex and
 * leaves at its last).  Every update raises the value by one until
 * `rounds`, so all blocks keep re-activating each other.
 */
struct OverlapProbe
{
    using Value = double;
    using Accum = double;

    std::shared_ptr<std::vector<std::atomic<int>>> inside;
    std::shared_ptr<std::atomic<int>> overlaps;
    double rounds = 100.0;

    Value init(VertexId, const BlockPartition &) const { return 0.0; }
    Accum identity() const { return 0.0; }
    Accum edgeTerm(Value, Value, float) const { return 0.0; }
    Accum combine(Accum a, Accum b) const { return a + b; }

    Value
    apply(VertexId v, Accum, Value old, const BlockPartition &g) const
    {
        const BlockId b = g.blockOf(v);
        if (v == g.blockBegin(b) && (*inside)[b].fetch_add(1) != 0)
            overlaps->fetch_add(1);
        if (v + 1 == g.blockEnd(b))
            (*inside)[b].fetch_sub(1);
        return std::min(old + 1.0, rounds);
    }

    Value edgeValue(VertexId, Value v, const BlockPartition &) const
    {
        return v;
    }
    double delta(Value a, Value b) const { return std::abs(a - b); }
};

TEST(AsyncEngine, NeverProcessesOneBlockTwiceAtOnce)
{
    // A block re-activated while an earlier copy of it is in flight is
    // re-issued by the scheduler.  Were both copies processed at once,
    // the slower one's store could overwrite a newer value that nothing
    // re-activates — an SSSP run then converges to wrong distances.
    Rng rng(53);
    EdgeList el = generateRmat(256, 4096, rng);
    EngineOptions opt;
    opt.blockSize = 64;   // four blocks, all re-activated every sweep
    opt.numThreads = 4;
    BlockPartition g(el, opt.blockSize);
    OverlapProbe probe;
    probe.inside =
        std::make_shared<std::vector<std::atomic<int>>>(g.numBlocks());
    probe.overlaps = std::make_shared<std::atomic<int>>(0);

    for (int run = 0; run < 5; run++) {
        AsyncEngine<OverlapProbe> engine(g, probe, opt);
        std::vector<double> x;
        ASSERT_TRUE(engine.run(x).converged);
        for (VertexId v = 0; v < g.numVertices(); v++)
            ASSERT_EQ(x[v], probe.rounds) << "vertex " << v;
    }
    EXPECT_EQ(probe.overlaps->load(), 0);
}

TEST_P(AsyncSweep, ConnectedComponentsMatchUnionFind)
{
    Rng rng(53);
    EdgeList el = generateErdosRenyi(300, 250, rng);
    EdgeList sym = el.symmetrized();
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(sym, opt.blockSize);

    AsyncEngine<CcProgram> engine(g, CcProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = ccReference(el);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(labels[v], ref[v]);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, AsyncSweep,
    testing::Values(AsyncCase{1, ExecMode::Async},
                    AsyncCase{2, ExecMode::Async},
                    AsyncCase{4, ExecMode::Async},
                    AsyncCase{2, ExecMode::Barrier},
                    AsyncCase{2, ExecMode::Bsp},
                    AsyncCase{4, ExecMode::Bsp}),
    caseName);

TEST(AsyncEngine, PriorityScheduleWorksThreaded)
{
    Rng rng(54);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 3;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6);
}

TEST(AsyncEngine, RepeatedRunsAreStable)
{
    // Asynchronous interleavings differ between runs, but the fixed
    // point must not.
    Rng rng(55);
    EdgeList el = generateRmat(200, 1500, rng, {.weighted = true});
    EngineOptions opt;
    opt.blockSize = 8;
    opt.numThreads = 4;
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);
    std::vector<double> ref = dijkstraReference(el, 0);

    for (int run = 0; run < 5; run++) {
        AsyncEngine<SsspProgram> engine(g, SsspProgram(0), opt);
        std::vector<double> dist;
        engine.run(dist);
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(dist[v], ref[v], 1e-6);
    }
}

/** Options for a run that can never converge (negative tolerance). */
EngineOptions
endlessOptions(ExecMode mode, std::uint32_t threads)
{
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = threads;
    opt.mode = mode;
    opt.tolerance = -1.0;   // residual >= 0 never beats this
    opt.maxEpochs = 1e9;
    return opt;
}

TEST(AsyncEngineStop, StopTokenTerminatesWorkersPromptly)
{
    Rng rng(57);
    EdgeList el = generateRmat(300, 2400, rng);
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        EngineOptions opt = endlessOptions(mode, 4);
        StopSource source;
        opt.stop = source.token();
        BlockPartition g(el, opt.blockSize);
        AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

        std::thread canceller([&source] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            source.requestStop();
        });
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<double> x;
        EngineReport report = engine.run(x);
        canceller.join();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        // run() returned because the token fired, long before the
        // 1e9-epoch budget, and said so in the report.
        EXPECT_TRUE(report.stopped) << to_string(mode);
        EXPECT_FALSE(report.converged) << to_string(mode);
        EXPECT_LT(elapsed, 10.0) << to_string(mode);

        // State is consistent: a full-size, finite value vector.
        ASSERT_EQ(x.size(), el.numVertices());
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_TRUE(std::isfinite(x[v])) << "vertex " << v;
    }
}

TEST(AsyncEngineStop, PreCancelledTokenStopsBeforeWork)
{
    Rng rng(58);
    EdgeList el = generateRmat(128, 1024, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 2);
    StopSource source;
    source.requestStop();
    opt.stop = source.token();
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(x.size(), el.numVertices());
}

TEST(AsyncEngineStop, DeadlineAloneStopsTheRun)
{
    Rng rng(59);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 3);
    opt.stop = StopToken().withDeadline(0.05);
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
}

TEST(AsyncEngineStop, StoppedRunPublishesProgress)
{
    Rng rng(60);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 2);
    StopSource source;
    opt.stop = source.token();
    auto progress = std::make_shared<Progress>();
    opt.progress = progress;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

    std::thread canceller([&] {
        // Wait until the engine demonstrably did work, then stop it.
        while (progress->blockUpdates.load(std::memory_order_relaxed) <
               10)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        source.requestStop();
    });
    std::vector<double> x;
    EngineReport report = engine.run(x);
    canceller.join();
    EXPECT_TRUE(report.stopped);
    EXPECT_GE(progress->blockUpdates.load(std::memory_order_relaxed),
              10u);
    EXPECT_GT(progress->edgeTraversals.load(std::memory_order_relaxed),
              0u);
}

TEST(AsyncEngine, SinkHeavyGraphMatchesReference)
{
    // Regression for the processAndCommit scatter path: a graph where
    // most vertices are sinks (no out-edges)
    // exercises the early-continue and the hoisted old-edge-value read
    // in both the fused commit (Async) and the wave commit (Bsp).
    EdgeList el(64);
    for (VertexId v = 1; v < 64; v++)
        el.addEdge(0, v);         // hub fans out; 1..63 are sinks
    el.addEdge(1, 0);             // one cycle so rank circulates
    el.addEdge(2, 0);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        EngineOptions opt;
        opt.blockSize = 8;
        opt.numThreads = 2;
        opt.mode = mode;
        opt.tolerance = 1e-12;
        BlockPartition g(el, opt.blockSize);
        AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                            opt);
        std::vector<double> x;
        EngineReport report = engine.run(x);
        EXPECT_TRUE(report.converged) << to_string(mode);
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(x[v], ref[v], 1e-6)
                << to_string(mode) << " vertex " << v;
    }
}

TEST(AsyncEngine, ReportsWorkCounters)
{
    Rng rng(56);
    EdgeList el = generateRmat(128, 1024, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_GT(report.blockUpdates, 0u);
    EXPECT_GT(report.edgeTraversals, 0u);
    EXPECT_GT(report.epochs, 0.0);
    EXPECT_GT(report.seconds, 0.0);
}

TEST(AsyncEngine, HugeMaxEpochsDoesNotOverflowTheUpdateBudget)
{
    // maxEpochs * |V| beyond the uint64 range used to be cast straight
    // to uint64 (UB; in practice a 0 or garbage budget that ended runs
    // instantly).  It must clamp and run to convergence as usual.
    Rng rng(57);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.numThreads = 2;
    opt.tolerance = 1e-10;
    opt.maxEpochs = 1e18;   // * |V| = 2.56e20 >> 2^64 ~ 1.8e19
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.blockUpdates, 0u);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

} // namespace
} // namespace graphabcd
