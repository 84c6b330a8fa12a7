/**
 * @file
 * Unit tests of the graph substrate: edge lists, CSR, generators, I/O.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>

#include "graph/csr.hh"
#include "graph/datasets.hh"
#include "graph/edge_list.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/stats.hh"
#include "runtime/executor.hh"
#include "runtime/parallel_for.hh"
#include "support/logging.hh"
#include "temp_path.hh"

namespace graphabcd {
namespace {

TEST(EdgeList, AddAndCount)
{
    EdgeList el(4);
    el.addEdge(0, 1);
    el.addEdge(1, 2, 2.5f);
    EXPECT_EQ(el.numVertices(), 4u);
    EXPECT_EQ(el.numEdges(), 2u);
    EXPECT_FLOAT_EQ(el.edge(1).weight, 2.5f);
}

TEST(EdgeList, OutOfRangeEndpointPanics)
{
    EdgeList el(2);
    EXPECT_THROW(el.addEdge(0, 5), PanicError);
}

TEST(EdgeList, NormalizeSortsAndDedups)
{
    EdgeList el(3);
    el.addEdge(2, 0);
    el.addEdge(0, 1);
    el.addEdge(2, 0);   // duplicate
    el.normalize(true);
    ASSERT_EQ(el.numEdges(), 2u);
    EXPECT_EQ(el.edge(0).src, 0u);
    EXPECT_EQ(el.edge(1).src, 2u);
}

TEST(EdgeList, RemoveSelfLoops)
{
    EdgeList el(3);
    el.addEdge(1, 1);
    el.addEdge(0, 2);
    el.removeSelfLoops();
    ASSERT_EQ(el.numEdges(), 1u);
    EXPECT_EQ(el.edge(0).dst, 2u);
}

TEST(EdgeList, ReversedFlipsEveryEdge)
{
    EdgeList el(3);
    el.addEdge(0, 1, 3.0f);
    EdgeList rev = el.reversed();
    EXPECT_EQ(rev.edge(0).src, 1u);
    EXPECT_EQ(rev.edge(0).dst, 0u);
    EXPECT_FLOAT_EQ(rev.edge(0).weight, 3.0f);
}

TEST(EdgeList, SymmetrizedHasBothDirections)
{
    EdgeList el(3);
    el.addEdge(0, 1);
    el.addEdge(1, 0);   // already present both ways
    el.addEdge(1, 2);
    EdgeList sym = el.symmetrized();
    EXPECT_EQ(sym.numEdges(), 4u);   // (0,1),(1,0),(1,2),(2,1)
}

TEST(EdgeList, SymmetrizedKeepsTheFirstRatingBothWays)
{
    // Every (user, item) pair rated three times, with distinct
    // ratings, in scrambled input order: both directions of the pair
    // must keep the rating that came first.
    const VertexId users = 40, items = 12;
    EdgeList el(users + items);
    std::map<std::pair<VertexId, VertexId>, float> first;
    Rng rng(57);
    for (int round = 0; round < 3; round++) {
        for (VertexId k = 0; k < users * items; k++) {
            const VertexId u = (k * 7 + static_cast<VertexId>(round)) % users;
            const VertexId i = users + (k * 5 + u) % items;
            const float rating =
                1.0f + static_cast<float>(rng.nextBounded(1000));
            el.addEdge(u, i, rating);
            first.try_emplace({u, i}, rating);
        }
    }
    const EdgeList sym = el.symmetrized();
    std::map<std::pair<VertexId, VertexId>, float> kept;
    for (const Edge &e : sym.edges())
        ASSERT_TRUE(kept.emplace(std::pair{e.src, e.dst}, e.weight).second);
    ASSERT_EQ(kept.size(), 2 * first.size());
    for (const auto &[pair, rating] : first) {
        const auto [u, i] = pair;
        EXPECT_EQ(kept.at({u, i}), rating) << u << "->" << i;
        EXPECT_EQ(kept.at({i, u}), rating) << i << "->" << u;
    }
}

TEST(EdgeList, DegreesMatchHandCount)
{
    EdgeList el(4);
    el.addEdge(0, 1);
    el.addEdge(0, 2);
    el.addEdge(3, 2);
    auto outd = el.outDegrees();
    auto ind = el.inDegrees();
    EXPECT_EQ(outd[0], 2u);
    EXPECT_EQ(outd[3], 1u);
    EXPECT_EQ(ind[2], 2u);
    EXPECT_EQ(ind[0], 0u);
}

TEST(Csr, BySourceRowsAreOutNeighbors)
{
    EdgeList el(4);
    el.addEdge(1, 0, 5.0f);
    el.addEdge(1, 3, 6.0f);
    el.addEdge(2, 1);
    Csr out(el, Csr::Axis::BySource);
    EXPECT_EQ(out.degree(1), 2u);
    auto nbrs = out.neighbors(1);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[1], 3u);
    EXPECT_FLOAT_EQ(out.weights(1)[1], 6.0f);
    EXPECT_EQ(out.degree(0), 0u);
}

TEST(Csr, ByDestinationRowsAreInNeighbors)
{
    EdgeList el(4);
    el.addEdge(1, 0);
    el.addEdge(2, 0);
    Csr in(el, Csr::Axis::ByDestination);
    EXPECT_EQ(in.degree(0), 2u);
    EXPECT_EQ(in.neighbors(0)[0], 1u);
    EXPECT_EQ(in.neighbors(0)[1], 2u);
}

TEST(Csr, EdgeCountConserved)
{
    Rng rng(3);
    EdgeList el = generateErdosRenyi(100, 500, rng);
    Csr out(el, Csr::Axis::BySource);
    Csr in(el, Csr::Axis::ByDestination);
    EXPECT_EQ(out.numEdges(), 500u);
    EXPECT_EQ(in.numEdges(), 500u);
    std::uint64_t total = 0;
    for (VertexId v = 0; v < 100; v++)
        total += out.degree(v);
    EXPECT_EQ(total, 500u);
}

TEST(Generators, RmatShapeAndDeterminism)
{
    Rng rng1(42), rng2(42);
    EdgeList a = generateRmat(1000, 5000, rng1);
    EdgeList b = generateRmat(1000, 5000, rng2);
    EXPECT_EQ(a.numVertices(), 1000u);
    EXPECT_EQ(a.numEdges(), 5000u);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (EdgeId e = 0; e < a.numEdges(); e++)
        EXPECT_EQ(a.edge(e), b.edge(e));
}

TEST(Generators, RmatIsSkewed)
{
    Rng rng(42);
    EdgeList el = generateRmat(4096, 40960, rng);
    auto deg = el.inDegrees();
    auto max_deg = *std::max_element(deg.begin(), deg.end());
    double mean = 40960.0 / 4096.0;
    // A power-law graph has hubs far above the mean degree.
    EXPECT_GT(max_deg, mean * 10);
}

TEST(Generators, RmatExcludesSelfLoopsByDefault)
{
    Rng rng(5);
    EdgeList el = generateRmat(256, 2048, rng);
    for (const Edge &e : el.edges())
        EXPECT_NE(e.src, e.dst);
}

TEST(Generators, ChainAndCycle)
{
    EdgeList chain = generateChain(5);
    EXPECT_EQ(chain.numEdges(), 4u);
    EdgeList cycle = generateCycle(5);
    EXPECT_EQ(cycle.numEdges(), 5u);
    EXPECT_EQ(cycle.edge(4).src, 4u);
    EXPECT_EQ(cycle.edge(4).dst, 0u);
}

TEST(Generators, StarHubOutDegree)
{
    EdgeList star = generateStar(10);
    auto outd = star.outDegrees();
    EXPECT_EQ(outd[0], 9u);
    EXPECT_EQ(star.numEdges(), 9u);
}

TEST(Generators, Grid2dDegreesAndSymmetry)
{
    Rng rng(1);
    EdgeList grid = generateGrid2d(3, 4, rng);
    // 2 * (#horizontal + #vertical) = 2 * (3*3 + 2*4) = 34 edges.
    EXPECT_EQ(grid.numEdges(), 34u);
    auto outd = grid.outDegrees();
    auto ind = grid.inDegrees();
    for (VertexId v = 0; v < 12; v++)
        EXPECT_EQ(outd[v], ind[v]);
    EXPECT_EQ(outd[0], 2u);    // corner
    EXPECT_EQ(outd[5], 4u);    // interior
}

TEST(Generators, CompleteGraph)
{
    EdgeList k4 = generateComplete(4);
    EXPECT_EQ(k4.numEdges(), 12u);
}

TEST(Generators, RatingsAreBipartiteAndInRange)
{
    Rng rng(8);
    BipartiteGraph bg = generateRatings(50, 20, 1000, rng);
    EXPECT_EQ(bg.graph.numVertices(), 70u);
    EXPECT_EQ(bg.graph.numEdges(), 1000u);
    for (const Edge &e : bg.graph.edges()) {
        EXPECT_LT(e.src, 50u);              // user side
        EXPECT_GE(e.dst, 50u);              // item side
        EXPECT_GE(e.weight, 1.0f);
        EXPECT_LE(e.weight, 5.0f);
    }
}

TEST(Generators, RatingsHaveSkewedItemPopularity)
{
    Rng rng(9);
    BipartiteGraph bg = generateRatings(200, 500, 20000, rng);
    auto ind = bg.graph.inDegrees();
    std::vector<std::uint32_t> item_deg(ind.begin() + 200, ind.end());
    std::sort(item_deg.rbegin(), item_deg.rend());
    std::uint64_t top10 = std::accumulate(item_deg.begin(),
                                          item_deg.begin() + 50, 0ull);
    // Top 10% of items should hold well over 10% of ratings.
    EXPECT_GT(top10, 20000ull / 5);
}

TEST(Io, RoundTripPreservesGraph)
{
    Rng rng(4);
    EdgeList el = generateErdosRenyi(50, 200, rng, /*weighted=*/true);
    std::string path = tempPath("io_test.el");
    saveEdgeList(el, path);
    EdgeList loaded = loadEdgeList(path, /*densify=*/false);
    ASSERT_EQ(loaded.numEdges(), el.numEdges());
    for (EdgeId e = 0; e < el.numEdges(); e++) {
        EXPECT_EQ(loaded.edge(e).src, el.edge(e).src);
        EXPECT_EQ(loaded.edge(e).dst, el.edge(e).dst);
        EXPECT_NEAR(loaded.edge(e).weight, el.edge(e).weight, 1e-4);
    }
    std::remove(path.c_str());
}

TEST(Io, DensifyRemapsSparseIds)
{
    std::string path = tempPath("io_sparse.el");
    {
        FILE *f = std::fopen(path.c_str(), "w");
        std::fputs("# comment\n100 200\n200 300\n", f);
        std::fclose(f);
    }
    EdgeList el = loadEdgeList(path, /*densify=*/true);
    EXPECT_EQ(el.numVertices(), 3u);
    EXPECT_EQ(el.numEdges(), 2u);
    std::remove(path.c_str());
}

TEST(Io, BinaryRoundTripIsExact)
{
    Rng rng(44);
    EdgeList el = generateRmat(200, 1500, rng, {.weighted = true});
    std::string path = tempPath("io_test.bin");
    saveEdgeListBinary(el, path);
    EdgeList loaded = loadEdgeListBinary(path);
    ASSERT_EQ(loaded.numVertices(), el.numVertices());
    ASSERT_EQ(loaded.numEdges(), el.numEdges());
    for (EdgeId e = 0; e < el.numEdges(); e++)
        EXPECT_EQ(loaded.edge(e), el.edge(e));
    std::remove(path.c_str());
}

TEST(Io, BinaryRejectsBadMagic)
{
    std::string path = tempPath("io_bad.bin");
    {
        std::ofstream ofs(path, std::ios::binary);
        ofs << "not a graph at all, sorry";
    }
    EXPECT_THROW(loadEdgeListBinary(path), FatalError);
    std::remove(path.c_str());
}

TEST(Io, BinaryDetectsTruncation)
{
    Rng rng(45);
    EdgeList el = generateErdosRenyi(50, 400, rng);
    std::string path = tempPath("io_trunc.bin");
    saveEdgeListBinary(el, path);
    const auto size = std::filesystem::file_size(path);
    for (auto cut : {size / 2, size - 1}) {
        std::filesystem::resize_file(path, cut);
        EXPECT_THROW(loadEdgeListBinary(path), FatalError) << cut;
    }
    std::remove(path.c_str());
}

TEST(Io, MissingFileIsFatal)
{
    EXPECT_THROW(loadEdgeList("/nonexistent/nowhere.el"), FatalError);
}

TEST(Io, RejectsVertexIdsWiderThan32Bits)
{
    // Ids beyond VertexId used to be silently truncated, aliasing
    // distinct vertices; they must fail loudly, naming the line.
    std::string path = tempPath("io_wide.el");
    {
        FILE *f = std::fopen(path.c_str(), "w");
        std::fputs("0 1\n1 2\n7 5000000000\n", f);
        std::fclose(f);
    }
    try {
        loadEdgeList(path, /*densify=*/true);
        FAIL() << "64-bit id was accepted";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("5000000000"), std::string::npos) << what;
        EXPECT_NE(what.find(":3"), std::string::npos)
            << "line number missing from: " << what;
    }
    std::remove(path.c_str());
}

TEST(Io, BinaryRejectsOversizedHeaderEdgeCount)
{
    // A corrupt header claiming more edges than the file holds must
    // fail before allocating, not OOM on a multi-exabyte vector.
    Rng rng(46);
    EdgeList el = generateErdosRenyi(20, 60, rng);
    std::string path = tempPath("io_badcount.bin");
    saveEdgeListBinary(el, path);
    {
        // Overwrite the uint64 edge count at offset 12 (magic 4 +
        // version 4 + n 4) with a huge value.
        std::fstream fs(path,
                        std::ios::binary | std::ios::in | std::ios::out);
        fs.seekp(12);
        const std::uint64_t huge = ~std::uint64_t{0} / sizeof(Edge);
        fs.write(reinterpret_cast<const char *>(&huge), sizeof(huge));
    }
    EXPECT_THROW(loadEdgeListBinary(path), FatalError);
    std::remove(path.c_str());
}

/** A graph over more than one load task: 2 x 2^19 + 777 edges (three
 *  tasks, and a count that is not a multiple of three), every weight
 *  distinct. */
EdgeList
multiTaskGraph()
{
    const VertexId n = 100003;
    const EdgeId m = 2 * kSetupGrain + 777;
    EdgeList el(n);
    el.edges().reserve(m);
    for (EdgeId i = 0; i < m; i++) {
        el.addEdge(static_cast<VertexId>(i * 7919 % n),
                   static_cast<VertexId>((i * 104729 + 13) % n),
                   static_cast<float>(i) + 0.5f);
    }
    return el;
}

/** Overwrite edge e's destination in a saved binary edge list. */
void
patchDestination(const std::string &path, EdgeId e, VertexId dst)
{
    std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
    fs.seekp(static_cast<std::streamoff>(20 + e * sizeof(Edge) +
                                         offsetof(Edge, dst)));
    fs.write(reinterpret_cast<const char *>(&dst), sizeof(dst));
}

TEST(Io, BinaryRoundTripAboveTheGrainAtOneAndFourWorkers)
{
    const EdgeList el = multiTaskGraph();
    ASSERT_EQ(taskCount(el.numEdges(), kSetupGrain), 3u);
    ASSERT_NE(el.numEdges() % 3, 0u);
    const std::string path = tempPath("io_big.bin");
    saveEdgeListBinary(el, path);
    Executor one(1), four(4);
    for (Executor *exec : {&one, &four, static_cast<Executor *>(nullptr)}) {
        const EdgeList loaded = loadEdgeListBinary(path, exec);
        ASSERT_EQ(loaded.numVertices(), el.numVertices());
        ASSERT_EQ(loaded.numEdges(), el.numEdges());
        EXPECT_TRUE(loaded.edges() == el.edges());
    }
    std::remove(path.c_str());
}

TEST(Io, BinaryRoundTripOfNoEdges)
{
    for (VertexId n : {VertexId{0}, VertexId{5}}) {
        const std::string path = tempPath("io_empty.bin");
        saveEdgeListBinary(EdgeList(n), path);
        EXPECT_EQ(std::filesystem::file_size(path), 20u);
        const EdgeList loaded = loadEdgeListBinary(path);
        EXPECT_EQ(loaded.numVertices(), n);
        EXPECT_EQ(loaded.numEdges(), 0u);
        std::remove(path.c_str());
    }
}

/** @return the FatalError message of loading `path`, or "" if none. */
std::string
binaryLoadError(const std::string &path, Executor *exec = nullptr)
{
    try {
        loadEdgeListBinary(path, exec);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(Io, BinaryBadEndpointIsBadInput)
{
    // Edge 2 -> 9 on four vertices: bad input, not a library bug.
    const std::string path = tempPath("io_endpoint.bin");
    EdgeList el(10);
    el.addEdge(0, 1);
    el.addEdge(2, 9);
    saveEdgeListBinary(el, path);
    {
        std::fstream fs(path,
                        std::ios::binary | std::ios::in | std::ios::out);
        fs.seekp(8);   // the u32 vertex count, after magic and version
        const std::uint32_t four = 4;
        fs.write(reinterpret_cast<const char *>(&four), sizeof(four));
    }
    const std::string what = binaryLoadError(path);
    EXPECT_NE(what.find("'" + path + "': edge 1 (2 -> 9) has endpoint 9"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("header's 4 vertices"), std::string::npos) << what;
    EXPECT_EQ(what.find("assertion"), std::string::npos) << what;
    std::remove(path.c_str());
}

TEST(Io, BinaryBadEndpointInTheLastChunkNamesTheFirstBadEdge)
{
    const EdgeList el = multiTaskGraph();
    const EdgeId m = el.numEdges();
    const VertexId n = el.numVertices();
    const std::string path = tempPath("io_big_endpoint.bin");
    saveEdgeListBinary(el, path);
    Executor four(4);
    // The last edge, then also one earlier in the last chunk: the
    // message names the first bad edge of the file.
    patchDestination(path, m - 1, n + 3);
    std::string what = binaryLoadError(path, &four);
    EXPECT_NE(what.find("edge " + std::to_string(m - 1) + " "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("has endpoint " + std::to_string(n + 3)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("header's " + std::to_string(n) + " vertices"),
              std::string::npos)
        << what;
    const EdgeId earlier = 2 * kSetupGrain + 5;
    patchDestination(path, earlier, n);
    what = binaryLoadError(path, &four);
    EXPECT_NE(what.find("edge " + std::to_string(earlier) + " "),
              std::string::npos)
        << what;
    std::remove(path.c_str());
}

TEST(Stats, HandComputedGraph)
{
    EdgeList el(5);
    el.addEdge(0, 1);
    el.addEdge(0, 2);
    el.addEdge(1, 2);
    el.addEdge(3, 3);   // self loop; vertex 4 isolated
    GraphStats s = computeGraphStats(el);
    EXPECT_EQ(s.numVertices, 5u);
    EXPECT_EQ(s.numEdges, 4u);
    EXPECT_EQ(s.maxOutDegree, 2u);
    EXPECT_EQ(s.maxInDegree, 2u);
    EXPECT_EQ(s.danglingVertices, 2u);   // 2 and 4
    EXPECT_EQ(s.isolatedVertices, 1u);   // 4
    EXPECT_DOUBLE_EQ(s.selfLoopFraction, 0.25);
    EXPECT_FALSE(s.toString().empty());
}

TEST(Stats, GiniOrdersRegularBelowSkewed)
{
    Rng rng(46);
    GraphStats ring = computeGraphStats(generateCycle(1000));
    GraphStats skewed =
        computeGraphStats(generateRmat(1024, 8192, rng));
    EXPECT_NEAR(ring.inDegreeGini, 0.0, 1e-9);   // perfectly regular
    EXPECT_GT(skewed.inDegreeGini, 0.4);         // hub concentration
}

TEST(Stats, EmptyGraphIsSafe)
{
    GraphStats s = computeGraphStats(EdgeList(0));
    EXPECT_EQ(s.numVertices, 0u);
    EXPECT_DOUBLE_EQ(s.inDegreeGini, 0.0);
}

TEST(Datasets, CatalogHasSevenPaperGraphs)
{
    EXPECT_EQ(datasetCatalog().size(), 7u);
    EXPECT_EQ(datasetInfo("lj").paperName, "LiveJournal");
    EXPECT_TRUE(datasetInfo("NF").bipartite);
    EXPECT_THROW(datasetInfo("XX"), FatalError);
}

TEST(Datasets, StandInsPreserveEdgeVertexRatio)
{
    Dataset wt = makeDataset("WT", /*scale=*/0.5, /*seed=*/1);
    const DatasetInfo &info = wt.info;
    double paper_ratio = static_cast<double>(info.paperEdges) /
                         static_cast<double>(info.paperVertices);
    double ours = static_cast<double>(wt.numEdges()) /
                  static_cast<double>(wt.numVertices());
    EXPECT_NEAR(ours, paper_ratio, paper_ratio * 0.1);
}

TEST(Datasets, BipartiteStandInHasUsersAndItems)
{
    Dataset sac = makeDataset("SAC", 0.25, 1);
    EXPECT_GT(sac.users, 0u);
    EXPECT_GT(sac.items, 0u);
    EXPECT_EQ(sac.numVertices(), sac.users + sac.items);
}

TEST(Datasets, OutOfRangeScaleIsAFatalErrorNamingIt)
{
    // Bad input, not a library bug; a scale past the id range must not
    // reach the double -> integer cast, which would be undefined.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<double, const char *> cases[] = {
        {-1.0, "-1"}, {0.0, "0"}, {nan, "nan"}, {inf, "inf"},
        {1e30, "1e+30"}, {-inf, "-inf"}};
    for (const auto &[scale, printed] : cases) {
        for (const char *key : {"WT", "NF"}) {
            SCOPED_TRACE(std::string(key) + " scale " + printed);
            try {
                makeDataset(key, scale);
                ADD_FAILURE() << "no error";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              std::string("dataset scale ") + printed +
                              " is out of range"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // TW's vertex count passes 2^32 first: 41.65M / 768 per unit.
    EXPECT_THROW(makeDataset("TW", 80000.0), FatalError);
}

TEST(Datasets, DeterministicPerSeed)
{
    Dataset a = makeDataset("WT", 0.1, 99);
    Dataset b = makeDataset("WT", 0.1, 99);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (EdgeId e = 0; e < std::min<EdgeId>(a.numEdges(), 100); e++)
        EXPECT_EQ(a.graph.edge(e), b.graph.edge(e));
}

} // namespace
} // namespace graphabcd
