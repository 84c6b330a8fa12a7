/**
 * @file
 * Tests of the destination-sliced BlockPartition — the layout invariants
 * GraphABCD's sequential-access claim rests on.
 */

#include <gtest/gtest.h>

#include <set>

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
    BlockPartition g(el, 64);
    for (EdgeId e = 1; e < g.numEdges(); e++)
        EXPECT_LE(g.edgeDst(e - 1), g.edgeDst(e));
}

TEST(Partition, ScatterIndexCoversEveryEdgeExactlyOnce)
{
    Rng rng(22);
    EdgeList el = generateRmat(256, 2048, rng);
    BlockPartition g(el, 32);
    std::vector<char> seen(g.numEdges(), 0);
    for (VertexId v = 0; v < g.numVertices(); v++) {
        for (EdgeId pos : g.scatterPositions(v)) {
            EXPECT_EQ(g.edgeSrc(pos), v);   // position belongs to v
            EXPECT_FALSE(seen[pos]);
            seen[pos] = 1;
        }
    }
    for (char s : seen)
        EXPECT_TRUE(s);
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
    // Hand-checked case: the destination blocks a block's scatter
    // lists reach.  Block 0 = {0,1}: edges to 1(blk0), 2(blk1),
    // 2(blk1), 4(blk2).  Block 2 = {4,5}: edges 4->5 (blk2), 5->0
    // (blk0).
    {
        BlockPartition g(smallGraph(), 2);   // blocks {0,1},{2,3},{4,5}
        ScatterScratch scratch;
        auto reached = [&](BlockId b) {
            std::set<BlockId> out;
            for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
                for (BlockId d : g.scatterList(v, scratch).blk)
                    out.insert(d);
            }
            return out;
        };
        EXPECT_EQ(reached(0), (std::set<BlockId>{0, 1, 2}));
        EXPECT_EQ(reached(2), (std::set<BlockId>{0, 2}));
    }

    // Every scatter slot's sidecar block owns the slot's destination,
    // in every layout, vertex order and block cut.
    Rng rng(24);
    const EdgeList el = generateRmat(300, 2400, rng, {.weighted = true});
    for (GraphLayout layout : {GraphLayout::Plain, GraphLayout::Compressed}) {
        for (VertexReorder reorder : {VertexReorder::None,
                                      VertexReorder::Hub}) {
            LayoutOptions lo;
            lo.layout = layout;
            lo.reorder = reorder;
            const BlockPartition fixed(el, 32, lo);
            const BlockPartition balanced(el, EdgeId{200},
                                          BlockPartition::EdgeBalanced{},
                                          lo);
            for (const BlockPartition *g : {&fixed, &balanced}) {
                SCOPED_TRACE(std::string(to_string(layout)) + "/" +
                             to_string(reorder) + "/" +
                             (g == &fixed ? "fixed" : "edge-balanced"));
                ScatterScratch scratch;
                EdgeId slots = 0;
                for (VertexId v = 0; v < g->numVertices(); v++) {
                    const ScatterView out = g->scatterList(v, scratch);
                    ASSERT_EQ(out.pos.size(), out.blk.size());
                    ASSERT_EQ(out.size(), g->outDegree(v));
                    for (std::size_t i = 0; i < out.size(); i++) {
                        const VertexId dst = g->edgeDst(out.pos[i]);
                        EXPECT_EQ(out.blk[i], g->blockOf(dst));
                        EXPECT_EQ(g->edgeDstAt(out.pos[i], out.blk[i]),
                                  dst);
                    }
                    slots += out.size();
                }
                EXPECT_EQ(slots, g->numEdges());
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
    EXPECT_TRUE(g.scatterPositions(3).empty());
    EXPECT_EQ(g.outDegree(3), 0u);
}

} // namespace
} // namespace graphabcd
