/**
 * @file
 * Conservation properties of the HARP simulator: the timing layer must
 * account for exactly the work the functional layer performed — bytes,
 * tasks and epochs all reconcile, and the simulated clock can never be
 * beaten by the aggregate bandwidth bound.
 */

#include <gtest/gtest.h>

#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "graph/generators.hh"
#include "harp/system.hh"

namespace graphabcd {
namespace {

class SimConservation : public testing::TestWithParam<std::uint64_t>
{
  protected:
    SimReport
    run(const BlockPartition &g, HarpConfig cfg,
        std::uint32_t block_size)
    {
        EngineOptions opt;
        opt.blockSize = block_size;
        opt.tolerance = 1e-9;
        HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85), opt,
                                        cfg);
        std::vector<double> x;
        return sys.run(x);
    }
};

TEST_P(SimConservation, BusBytesMatchProcessedBlocks)
{
    Rng rng(GetParam());
    EdgeList el = generateRmat(1024, 8192, rng);
    BlockPartition g(el, 64);
    HarpConfig cfg;
    SimReport r = run(g, cfg, 64);

    // Every FPGA task streams edge records + vertex block in, vertex
    // block out; hybrid is off so all blockUpdates are FPGA tasks.
    const std::uint64_t vbytes = sizeof(double);
    const std::uint64_t rec = cfg.edgeRecordBytes(vbytes);
    std::uint64_t expected_read = 0, expected_write = 0;
    // Reconstruct from the report: reads = edges*rec + vertices*vbytes
    // summed per task.  Edge traversals and vertex updates are exactly
    // those sums' drivers.
    expected_read = r.engine.edgeTraversals * rec +
                    r.engine.vertexUpdates * vbytes;
    expected_write = r.engine.vertexUpdates * vbytes;
    EXPECT_EQ(r.busReadBytes, expected_read);
    EXPECT_EQ(r.busWriteBytes, expected_write);
    EXPECT_EQ(r.fpgaTasks, r.engine.blockUpdates);
}

TEST_P(SimConservation, TimeRespectsTheBandwidthBound)
{
    Rng rng(GetParam() ^ 0xBEEF);
    EdgeList el = generateRmat(2048, 16384, rng);
    BlockPartition g(el, 64);
    HarpConfig cfg;
    SimReport r = run(g, cfg, 64);
    // All traffic crossed one 12.8 GB/s link: simulated time can never
    // undercut bytes / bandwidth.
    const double floor_seconds =
        static_cast<double>(r.busReadBytes + r.busWriteBytes) /
        cfg.busBandwidth;
    EXPECT_GE(r.seconds, floor_seconds * (1.0 - 1e-9));
}

TEST_P(SimConservation, UtilizationsAreConsistentFractions)
{
    Rng rng(GetParam() ^ 0xCAFE);
    EdgeList el = generateRmat(1024, 8192, rng);
    BlockPartition g(el, 32);
    HarpConfig cfg;
    cfg.hybrid = GetParam() % 2 == 0;
    SimReport r = run(g, cfg, 32);
    EXPECT_GE(r.peUtilization, 0.0);
    EXPECT_LE(r.peUtilization, 1.0 + 1e-9);
    EXPECT_GE(r.busUtilization, 0.0);
    EXPECT_LE(r.busUtilization, 1.0 + 1e-9);
    EXPECT_GE(r.cpuUtilization, 0.0);
    EXPECT_LE(r.cpuUtilization, 1.0 + 1e-9);
    EXPECT_EQ(r.fpgaTasks + r.cpuGatherTasks, r.engine.blockUpdates);
}

TEST_P(SimConservation, HybridMovesTrafficOffTheBus)
{
    Rng rng(GetParam() ^ 0xF00D);
    EdgeList el = generateRmat(4096, 32768, rng);
    BlockPartition g(el, 32);
    HarpConfig plain, hybrid;
    plain.numPes = 2;   // starved: hybrid will take work
    hybrid.numPes = 2;
    hybrid.hybrid = true;
    SimReport a = run(g, plain, 32);
    SimReport b = run(g, hybrid, 32);
    if (b.cpuGatherTasks > 0) {
        // Bus bytes per block update must be lower with hybrid on.
        double per_a = static_cast<double>(a.busReadBytes) /
                       a.engine.blockUpdates;
        double per_b = static_cast<double>(b.busReadBytes) /
                       b.engine.blockUpdates;
        EXPECT_LT(per_b, per_a);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimConservation,
                         testing::Values(7, 11, 13, 17));

} // namespace
} // namespace graphabcd
