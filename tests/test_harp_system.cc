/**
 * @file
 * Whole-system tests of the HARP simulator: functional correctness of
 * the simulated execution (against the exact references), execution-
 * mode timing relations (Async < Barrier < BSP), hybrid execution,
 * utilization and traffic invariants.
 */

#include <gtest/gtest.h>

#include "algorithms/cf.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "graph/generators.hh"
#include "harp/system.hh"

namespace graphabcd {
namespace {

EngineOptions
baseOptions(VertexId block_size)
{
    EngineOptions opt;
    opt.blockSize = block_size;
    opt.tolerance = 1e-12;
    return opt;
}

TEST(HarpSystem, PageRankMatchesReference)
{
    Rng rng(91);
    EdgeList el = generateRmat(400, 3200, rng);
    BlockPartition g(el, 32);
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85),
                                    baseOptions(32), HarpConfig{});
    std::vector<double> x;
    SimReport report = sys.run(x);
    EXPECT_TRUE(report.engine.converged);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6);
}

TEST(HarpSystem, SsspMatchesDijkstraInAllModes)
{
    Rng rng(92);
    EdgeList el = generateRmat(300, 2400, rng, {.weighted = true});
    BlockPartition g(el, 16);
    std::vector<double> ref = dijkstraReference(el, 0);
    for (ExecMode mode :
         {ExecMode::Async, ExecMode::Barrier, ExecMode::Bsp}) {
        EngineOptions opt = baseOptions(16);
        opt.mode = mode;
        opt.tolerance = 1e-9;
        HarpSystem<SsspProgram> sys(g, SsspProgram(0), opt, HarpConfig{});
        std::vector<double> dist;
        SimReport report = sys.run(dist);
        EXPECT_TRUE(report.engine.converged) << to_string(mode);
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(dist[v], ref[v], 1e-6)
                << to_string(mode) << " vertex " << v;
    }
}

TEST(HarpSystem, CfWideValuesRun)
{
    Rng rng(93);
    BipartiteGraph bg = generateRatings(80, 30, 2000, rng,
                                        {.latent_dim = 8});
    EdgeList sym = bg.graph.symmetrized();
    BlockPartition g(sym, 16);
    EngineOptions opt = baseOptions(16);
    opt.tolerance = 1e-5;
    opt.maxEpochs = 20.0;
    HarpSystem<CfProgram<8>> sys(g, CfProgram<8>(0.2, 0.02), opt,
                                 HarpConfig{});
    std::vector<FeatureVec<8>> x;
    SimReport report = sys.run(x);
    EXPECT_GT(report.engine.blockUpdates, 0u);

    CfProgram<8> prog(0.2, 0.02);
    std::vector<FeatureVec<8>> init;
    for (VertexId v = 0; v < g.numVertices(); v++)
        init.push_back(prog.init(v, g));
    EXPECT_LT(cfRmse<8>(g, x), cfRmse<8>(g, init));
}

TEST(HarpSystem, AsyncIsFastestExecutionMode)
{
    // The Fig. 7 claim: async beats both baselines.  (Barrier 1.9-4.2x
    // and BSP 1.4-15.2x slower in the paper — overlapping ranges, so no
    // strict Barrier/BSP ordering is asserted.)  BSP must also pay a
    // convergence-rate penalty (more epochs), which the paper names as
    // the main source of its slowdown.
    Rng rng(94);
    EdgeList el = generateRmat(8192, 65536, rng);
    BlockPartition g(el, 32);   // 256 blocks >> in-flight window
    double seconds[3];
    double epochs[3];
    int idx = 0;
    for (ExecMode mode :
         {ExecMode::Async, ExecMode::Barrier, ExecMode::Bsp}) {
        EngineOptions opt = baseOptions(32);
        opt.mode = mode;
        opt.tolerance = 1e-9;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt,
                                        HarpConfig{});
        std::vector<double> x;
        SimReport report = sys.run(x);
        seconds[idx] = report.seconds;
        epochs[idx] = report.engine.epochs;
        idx++;
    }
    EXPECT_LT(seconds[0], seconds[1]);   // async < barrier
    EXPECT_LT(seconds[0], seconds[2]);   // async < bsp
    EXPECT_GT(epochs[2], epochs[0]);     // Jacobi converges slower
}

TEST(HarpSystem, BarrierMatchesAsyncConvergenceRate)
{
    // Paper Sec. V-D: 'Barrier' achieves a similar convergence rate to
    // 'Async' — the slowdown is coordination, not extra iterations.
    Rng rng(95);
    EdgeList el = generateRmat(8192, 65536, rng);
    BlockPartition g(el, 32);
    double epochs[2];
    int idx = 0;
    for (ExecMode mode : {ExecMode::Async, ExecMode::Barrier}) {
        EngineOptions opt = baseOptions(32);
        opt.mode = mode;
        opt.tolerance = 1e-9;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt,
                                        HarpConfig{});
        std::vector<double> x;
        epochs[idx++] = sys.run(x).engine.epochs;
    }
    EXPECT_NEAR(epochs[0], epochs[1], 0.35 * epochs[1]);
}

TEST(HarpSystem, AsyncImprovesPeUtilization)
{
    Rng rng(96);
    EdgeList el = generateRmat(4096, 32768, rng);
    BlockPartition g(el, 32);   // enough blocks to keep the window fed
    double util[2];
    int idx = 0;
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        EngineOptions opt = baseOptions(32);
        opt.mode = mode;
        opt.tolerance = 1e-9;
        HarpConfig cfg;
        cfg.numPes = 4;   // below the bandwidth knee
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
        std::vector<double> x;
        util[idx++] = sys.run(x).peUtilization;
    }
    EXPECT_GT(util[0], util[1]);
}

TEST(HarpSystem, MorePesReduceTimeUntilBandwidthBound)
{
    Rng rng(97);
    EdgeList el = generateRmat(4096, 32768, rng);
    BlockPartition g(el, 128);
    auto time_with = [&](std::uint32_t pes) {
        EngineOptions opt = baseOptions(128);
        opt.tolerance = 1e-9;
        HarpConfig cfg;
        cfg.numPes = pes;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
        std::vector<double> x;
        return sys.run(x).seconds;
    };
    double t1 = time_with(1);
    double t4 = time_with(4);
    double t16 = time_with(16);
    EXPECT_GT(t1, t4 * 1.5);       // near-linear early scaling
    EXPECT_LE(t16, t4 * 1.02);     // still no slower at 16
    // Saturation: the 4->16 gain is far below the 4x PE increase.
    EXPECT_GT(t16, t4 / 3.0);
}

TEST(HarpSystem, BusSaturatesWithManyPes)
{
    Rng rng(98);
    // Enough blocks to keep the dispatch window full AND enough edges
    // per block to amortise per-task latencies (the LogCA granularity
    // argument of Sec. IV-A1) — tiny blocks underutilise the link.
    EdgeList el = generateRmat(16384, 262144, rng);
    BlockPartition g(el, 256);   // ~4k edges/block, 64 blocks
    auto bus_util = [&](std::uint32_t pes) {
        EngineOptions opt = baseOptions(256);
        opt.tolerance = 1e-9;
        HarpConfig cfg;
        cfg.numPes = pes;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
        std::vector<double> x;
        return sys.run(x).busUtilization;
    };
    double u2 = bus_util(2);
    double u16 = bus_util(16);
    EXPECT_GT(u16, u2);
    EXPECT_GT(u16, 0.85);   // paper Fig. 9: ~98% when saturated
}

TEST(HarpSystem, TrafficIsReadDominated)
{
    // Pull-push: |E|-proportional reads vs |V|-proportional writes.
    Rng rng(99);
    EdgeList el = generateRmat(1024, 16384, rng);   // avg degree 16
    BlockPartition g(el, 64);
    EngineOptions opt = baseOptions(64);
    opt.tolerance = 1e-9;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt,
                                    HarpConfig{});
    std::vector<double> x;
    SimReport report = sys.run(x);
    EXPECT_GT(report.busReadBytes, 4 * report.busWriteBytes);
}

TEST(HarpSystem, HybridExecutionUsesCpuAndHelps)
{
    Rng rng(100);
    EdgeList el = generateRmat(4096, 32768, rng);
    BlockPartition g(el, 64);
    auto run_with = [&](bool hybrid, std::uint32_t pes) {
        EngineOptions opt = baseOptions(64);
        opt.tolerance = 1e-9;
        HarpConfig cfg;
        cfg.numPes = pes;
        cfg.hybrid = hybrid;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
        std::vector<double> x;
        return sys.run(x);
    };
    // With few PEs the backlog spills onto CPU workers.
    SimReport plain = run_with(false, 2);
    SimReport hybrid = run_with(true, 2);
    EXPECT_GT(hybrid.cpuGatherTasks, 0u);
    EXPECT_LT(hybrid.seconds, plain.seconds);
    // Functional result stays correct.
    std::vector<double> ref = pagerankReference(el, 0.85);
    std::vector<double> x;
    EngineOptions opt = baseOptions(64);
    opt.tolerance = 1e-12;
    HarpConfig cfg;
    cfg.numPes = 2;
    cfg.hybrid = true;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85), opt, cfg);
    sys.run(x);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6);
}

TEST(HarpSystem, StopFnEndsRunEarly)
{
    Rng rng(101);
    EdgeList el = generateRmat(512, 4096, rng);
    BlockPartition g(el, 32);
    EngineOptions opt = baseOptions(32);
    opt.tolerance = 1e-12;
    opt.traceInterval = 1.0;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt,
                                    HarpConfig{});
    std::vector<double> x;
    SimReport report = sys.run(
        x, [](double epochs, const std::vector<double> &) {
            return epochs >= 3.0;
        });
    EXPECT_TRUE(report.engine.converged);
    // Some in-flight overshoot past the stop check is expected.
    EXPECT_LT(report.engine.epochs, 8.0);
}

TEST(HarpSystem, ReportInvariantsHold)
{
    Rng rng(102);
    EdgeList el = generateRmat(512, 4096, rng);
    BlockPartition g(el, 32);
    EngineOptions opt = baseOptions(32);
    opt.tolerance = 1e-9;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt,
                                    HarpConfig{});
    std::vector<double> x;
    SimReport report = sys.run(x);
    EXPECT_GT(report.seconds, 0.0);
    EXPECT_GT(report.mtes, 0.0);
    EXPECT_GE(report.peUtilization, 0.0);
    EXPECT_LE(report.peUtilization, 1.0);
    EXPECT_LE(report.busUtilization, 1.0 + 1e-9);
    EXPECT_EQ(report.fpgaTasks + report.cpuGatherTasks,
              report.engine.blockUpdates);
    EXPECT_NEAR(report.engine.epochs,
                static_cast<double>(report.engine.vertexUpdates) /
                    el.numVertices(),
                1e-9);
}

} // namespace
} // namespace graphabcd
