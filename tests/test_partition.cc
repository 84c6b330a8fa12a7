/**
 * @file
 * Tests of the destination-sliced BlockPartition — the layout invariants
 * GraphABCD's sequential-access claim rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hh"
#include "graph/partition.hh"
#include "runtime/executor.hh"

namespace graphabcd {
namespace {

EdgeList
smallGraph()
{
    // 6 vertices, hand-checkable.
    EdgeList el(6);
    el.addEdge(0, 1, 1.0f);
    el.addEdge(0, 2, 2.0f);
    el.addEdge(1, 2, 3.0f);
    el.addEdge(2, 3, 4.0f);
    el.addEdge(3, 4, 5.0f);
    el.addEdge(4, 5, 6.0f);
    el.addEdge(5, 0, 7.0f);
    el.addEdge(1, 4, 8.0f);
    return el;
}

/** `el` with every weight replaced by `weight(i)` for edge i. */
template <typename Fn>
EdgeList
reweighted(const EdgeList &el, Fn &&weight)
{
    EdgeList out(el.numVertices());
    for (EdgeId i = 0; i < el.numEdges(); i++)
        out.addEdge(el.edge(i).src, el.edge(i).dst, weight(i));
    return out;
}

/** One source's out-edges as sorted (destination, weight) pairs. */
using OutList = std::vector<std::pair<VertexId, float>>;

/**
 * Per internal source, the (internal destination, weight) pairs the
 * edge list holds, sorted — what g's out-edge adjacency must hold.
 */
std::vector<OutList>
expectedOutLists(const EdgeList &el, const BlockPartition &g)
{
    const VertexPermutation &perm = g.permutation();
    std::vector<OutList> out(g.numVertices());
    for (const Edge &e : el.edges())
        out[perm.toInternal(e.src)].emplace_back(perm.toInternal(e.dst),
                                                 e.weight);
    for (OutList &l : out)
        std::sort(l.begin(), l.end());
    return out;
}

TEST(Partition, BlockRangesTileTheVertexSpace)
{
    BlockPartition g(smallGraph(), 4);
    EXPECT_EQ(g.numBlocks(), 2u);
    EXPECT_EQ(g.blockBegin(0), 0u);
    EXPECT_EQ(g.blockEnd(0), 4u);
    EXPECT_EQ(g.blockBegin(1), 4u);
    EXPECT_EQ(g.blockEnd(1), 6u);   // ragged tail
    EXPECT_EQ(g.blockVertexCount(1), 2u);
}

TEST(Partition, BlockOfIsConsistentWithRanges)
{
    BlockPartition g(smallGraph(), 4);
    for (VertexId v = 0; v < g.numVertices(); v++) {
        BlockId b = g.blockOf(v);
        EXPECT_GE(v, g.blockBegin(b));
        EXPECT_LT(v, g.blockEnd(b));
    }
}

TEST(Partition, InEdgesOfAVertexAreContiguousAndComplete)
{
    EdgeList el = smallGraph();
    BlockPartition g(el, 2);
    // Vertex 2 has in-edges from 0 (w=2) and 1 (w=3).
    std::multiset<VertexId> srcs;
    for (EdgeId e = g.inEdgeBegin(2); e < g.inEdgeEnd(2); e++) {
        EXPECT_EQ(g.edgeDst(e), 2u);
        srcs.insert(g.edgeSrc(e));
    }
    EXPECT_EQ(srcs, (std::multiset<VertexId>{0, 1}));
}

TEST(Partition, BlockEdgeSliceIsTheUnionOfItsVertices)
{
    EdgeList el = smallGraph();
    BlockPartition g(el, 3);
    for (BlockId b = 0; b < g.numBlocks(); b++) {
        EdgeId count = 0;
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++)
            count += g.inEdgeEnd(v) - g.inEdgeBegin(v);
        EXPECT_EQ(count, g.blockEdgeCount(b));
        EXPECT_EQ(g.edgeEnd(b) - g.edgeBegin(b), count);
    }
}

TEST(Partition, EdgeSlicesAreSortedByDestination)
{
    Rng rng(21);
    EdgeList el = generateRmat(512, 4096, rng);
    for (GraphLayout layout : {GraphLayout::Plain, GraphLayout::Compressed}) {
        SCOPED_TRACE(to_string(layout));
        LayoutOptions lo;
        lo.layout = layout;
        BlockPartition g(el, 64, lo);
        for (EdgeId e = 1; e < g.numEdges(); e++)
            EXPECT_LE(g.edgeDst(e - 1), g.edgeDst(e));
        // edgeDst(e) is the owner of e's in-edge range.
        for (VertexId v = 0; v < g.numVertices(); v++) {
            for (EdgeId e = g.inEdgeBegin(v); e < g.inEdgeEnd(v); e++)
                ASSERT_EQ(g.edgeDst(e), v);
        }
    }
}

TEST(Partition, OutEdgesCoverEveryEdgeExactlyOnce)
{
    Rng rng(22);
    EdgeList el = generateRmat(256, 2048, rng);
    BlockPartition g(el, 32);
    // The out-edge adjacency and the CSC hold the same (src, dst)
    // multiset, each |E| entries.
    std::vector<std::pair<VertexId, VertexId>> out, in;
    ScatterScratch scratch;
    for (VertexId v = 0; v < g.numVertices(); v++) {
        for (VertexId d : g.outEdges(v, scratch).dst)
            out.emplace_back(v, d);
    }
    for (EdgeId e = 0; e < g.numEdges(); e++)
        in.emplace_back(g.edgeSrc(e), g.edgeDst(e));
    ASSERT_EQ(out.size(), g.numEdges());
    std::sort(out.begin(), out.end());
    std::sort(in.begin(), in.end());
    EXPECT_EQ(out, in);
}

TEST(Partition, DegreesMatchEdgeList)
{
    Rng rng(23);
    EdgeList el = generateErdosRenyi(128, 1000, rng);
    BlockPartition g(el, 16);
    auto outd = el.outDegrees();
    auto ind = el.inDegrees();
    for (VertexId v = 0; v < 128; v++) {
        EXPECT_EQ(g.outDegree(v), outd[v]);
        EXPECT_EQ(g.inDegree(v), ind[v]);
    }
}

TEST(Partition, ScatterBlocksMatchDestinationBlocks)
{
    // Hand-checked case: the destination blocks a block's out-edges
    // reach.  Block 0 = {0,1}: edges to 1(blk0), 2(blk1),
    // 2(blk1), 4(blk2).  Block 2 = {4,5}: edges 4->5 (blk2), 5->0
    // (blk0).
    {
        BlockPartition g(smallGraph(), 2);   // blocks {0,1},{2,3},{4,5}
        ScatterScratch scratch;
        auto reached = [&](BlockId b) {
            std::set<BlockId> out;
            for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
                for (BlockId d : g.scatterBlocks(v, scratch))
                    out.insert(d);
            }
            return out;
        };
        EXPECT_EQ(reached(0), (std::set<BlockId>{0, 1, 2}));
        EXPECT_EQ(reached(2), (std::set<BlockId>{0, 2}));
    }

    // Every source's (dst, blk, weight) slots are its edge-list
    // out-edges, ascending by destination, with the sidecar block
    // owning each destination: in every layout, vertex order, block
    // cut and weight mode.
    Rng rng(24);
    const EdgeList topo = generateRmat(300, 2400, rng);
    const std::tuple<const char *, EdgeList, WeightMode> weights[] = {
        {"unit", reweighted(topo, [](EdgeId) { return 1.0f; }),
         WeightMode::Unit},
        {"integral", reweighted(topo, [](EdgeId i) {
             return static_cast<float>(i % 256);
         }),
         WeightMode::U8},
        {"float", reweighted(topo, [](EdgeId i) {
             return 0.25f + static_cast<float>(i % 97) * 0.5f;
         }),
         WeightMode::Float32},
    };
    for (const auto &[wname, el, packed_mode] : weights) {
        for (GraphLayout layout : {GraphLayout::Plain,
                                   GraphLayout::Compressed}) {
            for (VertexReorder reorder : {VertexReorder::None,
                                          VertexReorder::Hub}) {
                LayoutOptions lo;
                lo.layout = layout;
                lo.reorder = reorder;
                const BlockPartition fixed(el, 32, lo);
                const BlockPartition balanced(
                    el, EdgeId{200}, BlockPartition::EdgeBalanced{}, lo);
                for (const BlockPartition *g : {&fixed, &balanced}) {
                    SCOPED_TRACE(std::string(wname) + "/" +
                                 to_string(layout) + "/" +
                                 to_string(reorder) + "/" +
                                 (g == &fixed ? "fixed" : "edge-balanced"));
                    EXPECT_EQ(g->weightMode(),
                              layout == GraphLayout::Plain
                                  ? WeightMode::Float32
                                  : packed_mode);
                    const std::vector<OutList> want =
                        expectedOutLists(el, *g);
                    ScatterScratch scratch;
                    EdgeId slots = 0;
                    for (VertexId v = 0; v < g->numVertices(); v++) {
                        const OutEdgesView out = g->outEdges(v, scratch);
                        ASSERT_EQ(out.blk.size(), out.size());
                        ASSERT_EQ(out.size(), g->outDegree(v));
                        const std::span<const BlockId> blocks =
                            g->scatterBlocks(v, scratch);
                        ASSERT_TRUE(std::equal(blocks.begin(),
                                               blocks.end(),
                                               out.blk.begin(),
                                               out.blk.end()));
                        OutList got;
                        for (std::size_t i = 0; i < out.size(); i++) {
                            EXPECT_EQ(out.blk[i], g->blockOf(out.dst[i]));
                            if (i > 0) {
                                EXPECT_LE(out.dst[i - 1], out.dst[i]);
                            }
                            got.emplace_back(out.dst[i], out.weight(i));
                        }
                        std::sort(got.begin(), got.end());
                        ASSERT_EQ(got, want[v]) << "source " << v;
                        slots += out.size();
                    }
                    EXPECT_EQ(slots, g->numEdges());
                }
            }
        }
    }
}

TEST(Partition, SingleBlockDegeneratesToWholeGraph)
{
    EdgeList el = smallGraph();
    BlockPartition g(el, 100);   // block size > |V|
    EXPECT_EQ(g.numBlocks(), 1u);
    EXPECT_EQ(g.blockEdgeCount(0), el.numEdges());
}

TEST(Partition, BlockSizeOneGivesPerVertexBlocks)
{
    EdgeList el = smallGraph();
    BlockPartition g(el, 1);
    EXPECT_EQ(g.numBlocks(), 6u);
    for (VertexId v = 0; v < 6; v++)
        EXPECT_EQ(g.blockOf(v), v);
}

TEST(Partition, StreamBytesScaleWithEdgesAndValueWidth)
{
    EdgeList el = smallGraph();
    BlockPartition g(el, 3);
    std::uint64_t narrow = g.blockStreamBytes(0, 8);
    std::uint64_t wide = g.blockStreamBytes(0, 64);
    EXPECT_GT(wide, narrow);
    // Edge record = 4 (src) + 4 (weight) + value bytes.
    std::uint64_t expected =
        g.blockEdgeCount(0) * (4 + 4 + 8) +
        2ull * g.blockVertexCount(0) * 8;
    EXPECT_EQ(narrow, expected);
}

TEST(Partition, StoredBytesPerEdgeFollowTheWeightMode)
{
    // Plain, float weights: CSC source + weight (8 B) and out-edge
    // destination + block + weight (12 B) — 20 B/edge stored.
    const BlockPartition plain(smallGraph(), 3);
    EXPECT_EQ(plain.gatherBytesPerEdge(), 8.0);
    EXPECT_EQ(plain.scatterBytesPerEdge(), 12.0);

    // Compressed with unit weights stores no weight in either order.
    const EdgeList weighted = smallGraph();
    EdgeList unit(weighted.numVertices());
    for (const Edge &e : weighted.edges())
        unit.addEdge(e.src, e.dst);
    LayoutOptions lo;
    lo.layout = GraphLayout::Compressed;
    const BlockPartition packed(unit, 3, lo);
    EXPECT_EQ(packed.weightMode(), WeightMode::Unit);
    EXPECT_EQ(packed.scatterBytesPerEdge(), 8.0);
    EXPECT_LT(packed.gatherBytesPerEdge(), 4.0);
}

TEST(Partition, EmptyGraphIsHandled)
{
    EdgeList el(0);
    BlockPartition g(el, 8);
    EXPECT_EQ(g.numBlocks(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(Partition, VertexWithNoEdgesHasEmptySlices)
{
    EdgeList el(4);
    el.addEdge(0, 1);
    BlockPartition g(el, 2);
    EXPECT_EQ(g.inEdgeBegin(3), g.inEdgeEnd(3));
    ScatterScratch scratch;
    EXPECT_TRUE(g.outEdges(3, scratch).empty());
    EXPECT_TRUE(g.scatterBlocks(3, scratch).empty());
    EXPECT_EQ(g.outDegree(3), 0u);
}

// ------------------------------------------------------------- the build

/** Every array a BlockPartition exposes, read through its accessors. */
struct FlatPartition
{
    std::vector<VertexId> toInternal;
    std::vector<VertexId> blockBegins;
    std::vector<BlockId> vertexBlock;
    std::vector<EdgeId> inOffsets;
    std::vector<VertexId> inSrc;
    std::vector<float> inWeight;
    std::vector<EdgeId> outOffsets;
    std::vector<VertexId> outDst;
    std::vector<BlockId> outBlk;
    std::vector<float> outWeight;
    std::vector<std::uint8_t> packed;   //!< compressed gather stream
    WeightMode mode = WeightMode::Float32;

    bool operator==(const FlatPartition &) const = default;
};

FlatPartition
flatten(const BlockPartition &g)
{
    const VertexId n = g.numVertices();
    FlatPartition f;
    f.mode = g.weightMode();
    for (BlockId b = 0; b < g.numBlocks(); b++)
        f.blockBegins.push_back(g.blockBegin(b));
    f.blockBegins.push_back(n);
    ScatterScratch scratch;
    for (VertexId v = 0; v < n; v++) {
        f.toInternal.push_back(g.permutation().toInternal(v));
        f.vertexBlock.push_back(g.blockOf(v));
        f.inOffsets.push_back(g.inEdgeBegin(v));
        g.forEachInEdge(v, [&](EdgeId, VertexId src, float w) {
            f.inSrc.push_back(src);
            f.inWeight.push_back(w);
        });
        const OutEdgesView out = g.outEdges(v, scratch);
        f.outOffsets.push_back(out.base);
        for (std::size_t i = 0; i < out.size(); i++) {
            f.outDst.push_back(out.dst[i]);
            f.outBlk.push_back(out.blk[i]);
            f.outWeight.push_back(out.weight(i));
        }
    }
    f.inOffsets.push_back(g.numEdges());
    f.outOffsets.push_back(g.numEdges());
    f.packed.assign(g.gatherStream().begin(), g.gatherStream().end());
    return f;
}

/**
 * The partition the bucketed build must reproduce, built the plain way:
 * a hub permutation by comparison sort, an edge list remapped to it,
 * a direct counting sort by destination, a stable sort of each in-list
 * by source and a serial delta-varint pack (compressed only) and a
 * direct counting sort by source over the CSC.
 */
FlatPartition
naiveBuild(const EdgeList &el, LayoutOptions lo, bool balanced,
           EdgeId param)
{
    const VertexId n = el.numVertices();
    FlatPartition f;

    f.toInternal.resize(n);
    std::iota(f.toInternal.begin(), f.toInternal.end(), VertexId{0});
    if (lo.reorder == VertexReorder::Hub) {
        const auto od = el.outDegrees(), id = el.inDegrees();
        auto bucket = [&](VertexId v) {
            return std::bit_width(std::uint64_t{od[v]} + id[v] + 1);
        };
        std::vector<VertexId> order(n);
        std::iota(order.begin(), order.end(), VertexId{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](VertexId a, VertexId b) {
                             return bucket(a) > bucket(b);
                         });
        for (VertexId i = 0; i < n; i++)
            f.toInternal[order[i]] = i;
    }
    std::vector<Edge> edges;
    for (const Edge &e : el.edges())
        edges.emplace_back(f.toInternal[e.src], f.toInternal[e.dst],
                           e.weight);

    f.blockBegins = {0};
    if (!balanced) {
        const VertexId bs =
            std::min<VertexId>(static_cast<VertexId>(param),
                               std::max<VertexId>(n, 1));
        for (VertexId v = bs; v < n; v += bs)
            f.blockBegins.push_back(v);
        if (n > 0)
            f.blockBegins.push_back(n);
    } else {
        std::vector<EdgeId> ind(n);
        for (const Edge &e : edges)
            ind[e.dst]++;
        EdgeId in_block = 0;
        for (VertexId v = 0; v < n; v++) {
            in_block += ind[v];
            if (in_block >= param && v + 1 < n) {
                f.blockBegins.push_back(v + 1);
                in_block = 0;
            }
        }
        if (n > 0)
            f.blockBegins.push_back(n);
    }
    for (std::size_t b = 0; b + 1 < f.blockBegins.size(); b++) {
        for (VertexId v = f.blockBegins[b]; v < f.blockBegins[b + 1]; v++)
            f.vertexBlock.push_back(static_cast<BlockId>(b));
    }

    const EdgeId m = edges.size();
    f.inOffsets.assign(std::size_t{n} + 1, 0);
    for (const Edge &e : edges)
        f.inOffsets[e.dst + 1]++;
    std::partial_sum(f.inOffsets.begin(), f.inOffsets.end(),
                     f.inOffsets.begin());
    f.inSrc.resize(m);
    f.inWeight.resize(m);
    {
        std::vector<EdgeId> cursor(f.inOffsets.begin(), f.inOffsets.end() - 1);
        for (const Edge &e : edges) {
            const EdgeId pos = cursor[e.dst]++;
            f.inSrc[pos] = e.src;
            f.inWeight[pos] = e.weight;
        }
    }
    if (lo.layout == GraphLayout::Compressed) {
        std::vector<std::pair<VertexId, float>> seg;
        for (VertexId v = 0; v < n; v++) {
            seg.clear();
            for (EdgeId e = f.inOffsets[v]; e < f.inOffsets[v + 1]; e++)
                seg.emplace_back(f.inSrc[e], f.inWeight[e]);
            std::stable_sort(seg.begin(), seg.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (std::size_t i = 0; i < seg.size(); i++) {
                f.inSrc[f.inOffsets[v] + i] = seg[i].first;
                f.inWeight[f.inOffsets[v] + i] = seg[i].second;
            }
        }
        // The packed stream, byte for byte: each in-list appended in
        // vertex order.
        for (VertexId v = 0; v < n; v++) {
            codec::encodeDeltaList32(
                {f.inSrc.data() + f.inOffsets[v],
                 f.inSrc.data() + f.inOffsets[v + 1]},
                f.packed);
        }
    }

    f.outOffsets.assign(std::size_t{n} + 1, 0);
    for (const VertexId src : f.inSrc)
        f.outOffsets[src + 1]++;
    std::partial_sum(f.outOffsets.begin(), f.outOffsets.end(),
                     f.outOffsets.begin());
    f.outDst.resize(m);
    f.outBlk.resize(m);
    f.outWeight.resize(m);
    {
        std::vector<EdgeId> cursor(f.outOffsets.begin(),
                                   f.outOffsets.end() - 1);
        for (VertexId v = 0; v < n; v++) {
            for (EdgeId pos = f.inOffsets[v]; pos < f.inOffsets[v + 1];
                 pos++) {
                const EdgeId slot = cursor[f.inSrc[pos]]++;
                f.outDst[slot] = v;
                f.outBlk[slot] = f.vertexBlock[v];
                f.outWeight[slot] = f.inWeight[pos];
            }
        }
    }

    f.mode = lo.layout == GraphLayout::Compressed
        ? narrowestWeightMode(f.inWeight)
        : WeightMode::Float32;
    return f;
}

/** Graphs covering the build's edge cases, by name. */
std::vector<std::pair<std::string, EdgeList>>
buildGraphs()
{
    std::vector<std::pair<std::string, EdgeList>> graphs;
    graphs.emplace_back("empty", EdgeList());
    graphs.emplace_back("one vertex", EdgeList(1));

    EdgeList loops(40);
    Rng rng(91);
    for (VertexId v = 0; v < 40; v++) {
        loops.addEdge(v, v);
        if (v % 3 == 0)
            loops.addEdge(v, v);
        loops.addEdge(v, static_cast<VertexId>(rng.nextBounded(40)));
    }
    graphs.emplace_back("self-loops, unit weights", std::move(loops));

    // Few vertices, many parallel edges, every weight distinct: the
    // order of a vertex's multi-edges shows in its weights.
    EdgeList multi(12);
    for (int i = 0; i < 900; i++) {
        multi.addEdge(static_cast<VertexId>(rng.nextBounded(12)),
                      static_cast<VertexId>(rng.nextBounded(12)),
                      0.25f + static_cast<float>(i));
    }
    graphs.emplace_back("multi-edges, distinct weights", std::move(multi));

    // |V| is not a multiple of any power-of-two bucket width.
    EdgeList ragged(5003);
    for (int i = 0; i < 40000; i++) {
        ragged.addEdge(static_cast<VertexId>(rng.nextBounded(5003)),
                       static_cast<VertexId>(rng.nextBounded(5003)),
                       static_cast<float>(1 + i % 7));
    }
    graphs.emplace_back("ragged |V|, u8 weights", std::move(ragged));

    // |V| > 65,536 and over 2^19 edges (several build tasks), most of
    // them into 48 hubs scattered over the id space, so hub reorder
    // puts most edges into the first bucket of internal ids.
    const VertexId n = 70001;
    EdgeList hubs(n);
    for (int i = 0; i < 540000; i++) {
        const VertexId hub = static_cast<VertexId>((i % 48) * 1447 + 3);
        const auto other = static_cast<VertexId>(rng.nextBounded(n));
        if (i % 7 == 6)
            hubs.addEdge(other, static_cast<VertexId>(rng.nextBounded(n)));
        else if (i % 3 == 2)
            hubs.addEdge(hub, other);
        else
            hubs.addEdge(other, hub, static_cast<float>(i % 3));
    }
    graphs.emplace_back("hub-heavy, 540k edges", std::move(hubs));
    return graphs;
}

/**
 * The bucketed build matches the plain one on every array (the
 * compressed layout's packed stream byte for byte), on every layout x
 * reorder x cut, and gives the same partition on one worker as on four.
 */
TEST(PartitionBuild, MatchesNaiveBuildAtOneAndFourWorkers)
{
    Executor one(1), four(4);
    for (const auto &[name, el] : buildGraphs()) {
        SCOPED_TRACE(name);
        for (GraphLayout layout :
             {GraphLayout::Plain, GraphLayout::Compressed}) {
            for (VertexReorder reorder :
                 {VertexReorder::None, VertexReorder::Hub}) {
                for (bool balanced : {false, true}) {
                    SCOPED_TRACE(std::string(to_string(layout)) + " " +
                                 std::string(to_string(reorder)) +
                                 (balanced ? " edge-balanced" : " fixed"));
                    const LayoutOptions lo{layout, reorder};
                    const EdgeId param = balanced
                        ? std::max<EdgeId>(1, el.numEdges() / 9)
                        : 1000;
                    auto build = [&](Executor &exec) {
                        return balanced
                            ? BlockPartition(el, param,
                                             BlockPartition::EdgeBalanced{},
                                             lo, &exec)
                            : BlockPartition(
                                  el, static_cast<VertexId>(param), lo,
                                  &exec);
                    };
                    const FlatPartition at1 = flatten(build(one));
                    const FlatPartition at4 = flatten(build(four));
                    const FlatPartition want =
                        naiveBuild(el, lo, balanced, param);
                    EXPECT_TRUE(at1 == want);
                    EXPECT_TRUE(at4 == at1);
                }
            }
        }
    }
}

/** Per block, its vertices' sidecar entries, sorted and distinct. */
std::vector<std::vector<BlockId>>
unionOracle(const BlockPartition &g)
{
    std::vector<std::vector<BlockId>> out(g.numBlocks());
    ScatterScratch scratch;
    for (BlockId b = 0; b < g.numBlocks(); b++) {
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
            for (BlockId d : g.scatterBlocks(v, scratch))
                out[b].push_back(d);
        }
        std::ranges::sort(out[b]);
        out[b].erase(std::unique(out[b].begin(), out[b].end()),
                     out[b].end());
    }
    return out;
}

std::vector<std::vector<BlockId>>
unions(const BlockPartition &g)
{
    std::vector<std::vector<BlockId>> out(g.numBlocks());
    ScatterScratch scratch;
    for (BlockId b = 0; b < g.numBlocks(); b++) {
        const std::span<const BlockId> u = g.scatterUnion(b, scratch);
        out[b].assign(u.begin(), u.end());
    }
    return out;
}

/**
 * Each block's union is the sorted distinct set of its vertices'
 * destination blocks, on plain and on compressed + hub partitions cut
 * into one-vertex blocks (on the larger graphs most unions are then
 * sorted rather than scanned), 64-vertex blocks and a single block,
 * and the build gives the same unions on one worker as on four.
 */
TEST(PartitionUnion, MatchesTheSidecarsAtOneAndFourWorkers)
{
    std::vector<std::pair<std::string, EdgeList>> graphs = buildGraphs();
    // Vertices 64..127 have in-edges only: at 64-vertex blocks, block 1
    // has no out-edges and an empty union.
    EdgeList sinks(256);
    Rng rng(77);
    for (int i = 0; i < 2000; i++) {
        auto src = static_cast<VertexId>(rng.nextBounded(192));
        if (src >= 64)
            src += 64;
        sinks.addEdge(src, static_cast<VertexId>(rng.nextBounded(256)));
    }
    graphs.emplace_back("a block of sinks", std::move(sinks));

    Executor one(1), four(4);
    for (const auto &[name, el] : graphs) {
        SCOPED_TRACE(name);
        for (const LayoutOptions lo :
             {LayoutOptions{GraphLayout::Plain, VertexReorder::None},
              LayoutOptions{GraphLayout::Compressed, VertexReorder::Hub}}) {
            for (VertexId bs :
                 {VertexId{1}, VertexId{64},
                  std::max<VertexId>(1, el.numVertices())}) {
                SCOPED_TRACE(std::string(to_string(lo.layout)) +
                             " block size " + std::to_string(bs));
                const BlockPartition at1(el, bs, lo, &one);
                const BlockPartition at4(el, bs, lo, &four);
                const auto got = unions(at1);
                EXPECT_EQ(got, unionOracle(at1));
                EXPECT_EQ(unions(at4), got);
                for (BlockId b = 0; b < at1.numBlocks(); b++) {
                    EdgeId out = 0;
                    for (VertexId v = at1.blockBegin(b); v < at1.blockEnd(b);
                         v++)
                        out += at1.outDegree(v);
                    ASSERT_EQ(at1.blockOutEdgeCount(b), out) << b;
                    EXPECT_EQ(got[b].empty(), out == 0) << b;
                }
                if (el.numEdges() == 0) {
                    EXPECT_TRUE(std::ranges::all_of(
                        got, [](const auto &u) { return u.empty(); }));
                }
                if (name == "a block of sinks" && bs == 64 &&
                    lo.reorder == VertexReorder::None) {
                    ASSERT_EQ(got.size(), 4u);
                    EXPECT_TRUE(got[1].empty());
                    EXPECT_EQ(got[0], (std::vector<BlockId>{0, 1, 2, 3}));
                }
            }
        }
    }
}

/** The hub permutation is the stable descending log2-degree order. */
TEST(PartitionBuild, HubPermutationMatchesTheStableSortOrder)
{
    for (const auto &[name, el] : buildGraphs()) {
        SCOPED_TRACE(name);
        const VertexPermutation perm = VertexPermutation::hubCluster(el);
        const FlatPartition want =
            naiveBuild(el, {GraphLayout::Plain, VertexReorder::Hub},
                       false, 1);
        for (VertexId v = 0; v < el.numVertices(); v++)
            ASSERT_EQ(perm.toInternal(v), want.toInternal[v]) << v;
    }
}

} // namespace
} // namespace graphabcd
