/**
 * @file
 * Tests of the distributed-accelerator extension: multiple simulated
 * FPGA devices, each with its own CPU link, fed by the one barrierless
 * scheduler — the scale-out the paper's asynchronous design enables
 * (Sec. I, IV-A3).
 */

#include <gtest/gtest.h>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "graph/generators.hh"
#include "harp/system.hh"

namespace graphabcd {
namespace {

SimReport
runPr(const BlockPartition &g, std::uint32_t accels,
      std::vector<double> &x)
{
    EngineOptions opt;
    opt.blockSize = g.blockSize();
    opt.tolerance = 1e-12;
    HarpConfig cfg;
    cfg.numAccelerators = accels;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85), opt, cfg);
    return sys.run(x);
}

TEST(ScaleOut, ResultsStayCorrectWithMultipleAccelerators)
{
    Rng rng(121);
    EdgeList el = generateRmat(512, 4096, rng);
    BlockPartition g(el, 16);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (std::uint32_t accels : {1u, 2u, 4u}) {
        std::vector<double> x;
        SimReport report = runPr(g, accels, x);
        EXPECT_TRUE(report.engine.converged) << accels << " accelerators";
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(x[v], ref[v], 1e-6);
    }
}

TEST(ScaleOut, MoreAcceleratorsMeanMoreAggregateBandwidth)
{
    // A bandwidth-bound workload must get faster with a second device
    // (each brings its own 12.8 GB/s link).
    Rng rng(122);
    EdgeList el = generateRmat(16384, 131072, rng);
    BlockPartition g(el, 64);   // 256 blocks: plenty to distribute
    std::vector<double> x;
    double t1 = runPr(g, 1, x).seconds;
    double t2 = runPr(g, 2, x).seconds;
    double t4 = runPr(g, 4, x).seconds;
    EXPECT_LT(t2, t1 * 0.85);
    EXPECT_LT(t4, t2 * 1.02);
}

TEST(ScaleOut, EpochCountStaysBoundedAcrossDevices)
{
    // Distribution must not blow up staleness: the |V|-normalised work
    // should stay within a modest factor of the single-device run.
    Rng rng(123);
    EdgeList el = generateRmat(8192, 65536, rng);
    BlockPartition g(el, 32);
    std::vector<double> x;
    double e1 = runPr(g, 1, x).engine.epochs;
    double e4 = runPr(g, 4, x).engine.epochs;
    EXPECT_LT(e4, e1 * 1.6);
}

TEST(ScaleOut, PeCountAggregatesAcrossDevices)
{
    Rng rng(124);
    EdgeList el = generateRmat(1024, 8192, rng);
    BlockPartition g(el, 32);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.tolerance = 1e-9;
    HarpConfig cfg;
    cfg.numAccelerators = 3;
    cfg.numPes = 4;
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
    std::vector<double> x;
    SimReport report = sys.run(x);
    EXPECT_EQ(report.fpgaTasks + report.cpuGatherTasks,
              report.engine.blockUpdates);
    EXPECT_GT(report.peUtilization, 0.0);
    EXPECT_LE(report.peUtilization, 1.0);
}

TEST(Heterogeneous, MixedDevicesAllContribute)
{
    // One full-speed FPGA plus one weak embedded device: the result is
    // still correct and the pair beats the weak device alone.
    Rng rng(125);
    EdgeList el = generateRmat(8192, 65536, rng);
    BlockPartition g(el, 32);

    AcceleratorSpec fpga;   // prototype defaults
    AcceleratorSpec weak;
    weak.numPes = 4;
    weak.clockHz = 100e6;
    weak.busBandwidth = 3.2e9;

    auto run_with = [&](std::vector<AcceleratorSpec> devices,
                        std::vector<double> &x) {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.tolerance = 1e-12;
        HarpConfig cfg;
        cfg.accelerators = std::move(devices);
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85), opt,
                                        cfg);
        return sys.run(x);
    };

    std::vector<double> x_weak, x_both;
    SimReport weak_only = run_with({weak}, x_weak);
    SimReport both = run_with({fpga, weak}, x_both);

    EXPECT_LT(both.seconds, weak_only.seconds);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x_both[v], ref[v], 1e-6);
}

TEST(Heterogeneous, ExplicitListOverridesUniformKnobs)
{
    Rng rng(126);
    EdgeList el = generateRmat(512, 4096, rng);
    BlockPartition g(el, 32);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.tolerance = 1e-9;
    HarpConfig cfg;
    cfg.numAccelerators = 7;   // must be ignored...
    AcceleratorSpec one;
    one.numPes = 2;
    cfg.accelerators = {one};  // ...in favour of this single device
    HarpSystem<PageRankProgram> sys(g, PageRankProgram(), opt, cfg);
    std::vector<double> x;
    SimReport report = sys.run(x);
    EXPECT_TRUE(report.engine.converged);
    EXPECT_GT(report.fpgaTasks, 0u);
}

} // namespace
} // namespace graphabcd
