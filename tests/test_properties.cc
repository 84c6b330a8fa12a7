/**
 * @file
 * Property-based sweeps: invariants that must hold for *every* random
 * graph and configuration, driven by parameterized seeds — partition
 * structure, engine determinism, conservation laws, reduction-unit
 * equivalence, scheduler exhaustiveness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/engine.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "harp/reduction.hh"

namespace graphabcd {
namespace {

class SeedSweep : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, PartitionConservesEdgesAndDegrees)
{
    Rng rng(GetParam());
    const auto n = static_cast<VertexId>(64 + rng.nextBounded(512));
    const EdgeId m = 4 * n + rng.nextBounded(8 * n);
    EdgeList el = generateRmat(n, m, rng);
    const auto bs = static_cast<VertexId>(1 + rng.nextBounded(n));
    BlockPartition g(el, bs);

    // Edge conservation.
    EXPECT_EQ(g.numEdges(), el.numEdges());
    EdgeId via_blocks = 0;
    for (BlockId b = 0; b < g.numBlocks(); b++)
        via_blocks += g.blockEdgeCount(b);
    EXPECT_EQ(via_blocks, el.numEdges());

    // Degree conservation.
    auto outd = el.outDegrees();
    auto ind = el.inDegrees();
    std::uint64_t total_out = 0;
    for (VertexId v = 0; v < n; v++) {
        EXPECT_EQ(g.outDegree(v), outd[v]);
        EXPECT_EQ(g.inDegree(v), ind[v]);
        total_out += g.outDegree(v);
    }
    EXPECT_EQ(total_out, el.numEdges());

    // Vertex ranges tile exactly.
    VertexId covered = 0;
    for (BlockId b = 0; b < g.numBlocks(); b++)
        covered += g.blockVertexCount(b);
    EXPECT_EQ(covered, n);
}

TEST_P(SeedSweep, OutEdgesArePermutationOfInEdges)
{
    Rng rng(GetParam() ^ 0xABCDULL);
    const auto n = static_cast<VertexId>(32 + rng.nextBounded(256));
    EdgeList el = generateErdosRenyi(n, 6 * n, rng);
    BlockPartition g(el, 17);

    // Every out-edge slot is one CSC edge, each used exactly once.
    using Arc = std::tuple<VertexId, VertexId, float>;
    std::vector<Arc> out, in;
    ScatterScratch scratch;
    for (VertexId v = 0; v < n; v++) {
        const OutEdgesView o = g.outEdges(v, scratch);
        for (std::size_t i = 0; i < o.size(); i++)
            out.emplace_back(v, o.dst[i], o.weight(i));
    }
    for (EdgeId e = 0; e < g.numEdges(); e++)
        in.emplace_back(g.edgeSrc(e), g.edgeDst(e), g.edgeWeight(e));
    std::sort(out.begin(), out.end());
    std::sort(in.begin(), in.end());
    EXPECT_EQ(out, in);
}

TEST_P(SeedSweep, EngineRunsAreDeterministic)
{
    Rng rng(GetParam() ^ 0x5EEDULL);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);

    std::vector<double> a, b;
    EngineReport ra =
        SerialEngine<PageRankProgram>(g, PageRankProgram(), opt).run(a);
    EngineReport rb =
        SerialEngine<PageRankProgram>(g, PageRankProgram(), opt).run(b);
    EXPECT_EQ(ra.blockUpdates, rb.blockUpdates);
    EXPECT_EQ(ra.vertexUpdates, rb.vertexUpdates);
    EXPECT_EQ(a, b);
}

TEST_P(SeedSweep, PagerankMassStaysBounded)
{
    // Rank mass can only leak through dangling vertices; it must stay
    // in (0, 1] at the fixed point.
    Rng rng(GetParam() ^ 0x77ULL);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);
    std::vector<double> x;
    SerialEngine<PageRankProgram>(g, PageRankProgram(), opt).run(x);
    double mass = pagerankMass(x);
    EXPECT_GT(mass, 0.1);
    EXPECT_LE(mass, 1.0 + 1e-9);
    for (double rank : x)
        EXPECT_GT(rank, 0.0);
}

TEST_P(SeedSweep, SsspDistancesRespectTriangleInequality)
{
    Rng rng(GetParam() ^ 0x1234ULL);
    EdgeList el = generateRmat(200, 1600, rng, {.weighted = true});
    EngineOptions opt;
    opt.blockSize = 16;
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);
    std::vector<double> dist;
    SerialEngine<SsspProgram>(g, SsspProgram(0), opt).run(dist);

    // Every edge must satisfy dist[dst] <= dist[src] + w.
    for (const Edge &e : el.edges()) {
        if (dist[e.src] < SsspProgram::unreachable) {
            EXPECT_LE(dist[e.dst],
                      dist[e.src] + static_cast<double>(e.weight) + 1e-6);
        }
    }
    EXPECT_DOUBLE_EQ(dist[0], 0.0);
}

TEST_P(SeedSweep, TaggedReductionEqualsSerialForRandomStreams)
{
    Rng rng(GetParam() ^ 0xFEEDULL);
    const auto tags = static_cast<std::uint32_t>(2 + rng.nextBounded(40));
    std::vector<std::pair<std::uint32_t, double>> stream;
    std::unordered_map<std::uint32_t, std::uint32_t> expected;
    std::unordered_map<std::uint32_t, double> serial;
    const int items = 200 + static_cast<int>(rng.nextBounded(800));
    for (int i = 0; i < items; i++) {
        auto tag = static_cast<std::uint32_t>(rng.nextBounded(tags));
        double v = rng.nextDouble() * 10.0;
        stream.emplace_back(tag, v);
        expected[tag]++;
        serial[tag] += v;
    }
    TaggedReductionUnit<double> unit(
        [](const double &a, const double &b) { return a + b; });
    ReductionStats stats;
    auto result = unit.reduce(stream, expected, &stats);
    ASSERT_EQ(result.size(), serial.size());
    for (const auto &[tag, v] : serial)
        EXPECT_NEAR(result.at(tag), v, 1e-9);
    // Cycle model: stream + one re-injection per combine + latency.
    EXPECT_EQ(stats.cycles,
              static_cast<std::uint64_t>(items) + stats.reductions + 4);
}

TEST_P(SeedSweep, SchedulersDrainExactlyTheActivatedSet)
{
    Rng rng(GetParam() ^ 0xD00DULL);
    const auto blocks = static_cast<BlockId>(8 + rng.nextBounded(100));
    for (Schedule kind :
         {Schedule::Cyclic, Schedule::Priority, Schedule::Random}) {
        auto sched = makeScheduler(kind, blocks, GetParam());
        std::vector<char> activated(blocks, 0);
        const auto picks = 1 + rng.nextBounded(blocks);
        for (std::uint64_t i = 0; i < picks; i++) {
            auto b = static_cast<BlockId>(rng.nextBounded(blocks));
            sched->activate(b, rng.nextDouble() + 0.1);
            activated[b] = 1;
        }
        std::vector<char> drained(blocks, 0);
        while (auto b = sched->next()) {
            EXPECT_FALSE(drained[*b]);   // no duplicates
            drained[*b] = 1;
        }
        EXPECT_EQ(drained, activated);
        EXPECT_TRUE(sched->empty());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SeedSweep,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                         89));

// ------------------------------------------------- failure injection

TEST(FailureInjection, ZeroBlockSizePanics)
{
    EdgeList el = generateChain(8);
    EXPECT_THROW(BlockPartition(el, 0), PanicError);
}

TEST(FailureInjection, NegativeScaleIsFatal)
{
    EXPECT_THROW(makeDataset("WT", -1.0), GraphError);
}

TEST(FailureInjection, GarbledEdgeFileIsFatal)
{
    std::string path = std::filesystem::temp_directory_path() /
                       "abcd_garbled.el";
    {
        std::ofstream ofs(path);
        ofs << "1 2\nnot numbers\n";
    }
    EXPECT_THROW(loadEdgeList(path), FatalError);
    std::remove(path.c_str());
}

TEST(FailureInjection, DijkstraSourceOutOfRangePanics)
{
    EdgeList el = generateChain(4);
    EXPECT_THROW(dijkstraReference(el, 99), PanicError);
}

} // namespace
} // namespace graphabcd
