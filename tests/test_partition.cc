/**
 * @file
 * Tests of the destination-sliced BlockPartition — the layout invariants
 * GraphABCD's sequential-access claim rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hh"
#include "graph/partition.hh"

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

} // namespace
} // namespace graphabcd
