/**
 * @file
 * Tests of the operation-based update machinery (PageRank Delta) and
 * Label Propagation — including the lost-update demonstration that
 * motivates the paper's state-based design choice (Sec. IV-A3).
 */

#include <gtest/gtest.h>

#include "algorithms/label_propagation.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "core/delta_state.hh"
#include "core/engine.hh"
#include "graph/generators.hh"

namespace graphabcd {
namespace {

TEST(PageRankDelta, SerialRunMatchesPowerIteration)
{
    Rng rng(111);
    EdgeList el = generateRmat(300, 2400, rng);
    BlockPartition g(el, 32);
    std::vector<double> x;
    runDeltaSerial(g, PageRankDeltaProgram(0.85), x, 1e-13, 2000.0);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7);
}

TEST(PageRankDelta, PrioritySchedulingAlsoConverges)
{
    Rng rng(112);
    EdgeList el = generateRmat(200, 1600, rng);
    BlockPartition g(el, 16);
    std::vector<double> x;
    runDeltaSerial(g, PageRankDeltaProgram(0.85), x, 1e-13, 2000.0,
                   Schedule::Priority);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7);
}

TEST(PageRankDelta, LostUpdateAnomalyUnderAsyncInterleaving)
{
    // The paper's argument against operation-based updates: interleave
    // two blocks the way an asynchronous machine would —
    //   1. block A GATHERs (snapshots its pending increments),
    //   2. block B commits, scattering NEW increments into A's slice,
    //   3. block A commits: its consume step zeroes the slice,
    //      destroying B's increments.
    // The result must then differ from the true fixed point.
    Rng rng(113);
    EdgeList el = generateRmat(64, 512, rng);
    BlockPartition g(el, 8);
    PageRankDeltaProgram p(0.85);
    DeltaState<PageRankDeltaProgram> state(g, p);

    // Pick two blocks where B feeds A: the first B with an out-edge
    // into another block, and the lowest such block A, read from the
    // scatter lists' destination-block sidecar.
    BlockId block_a = invalidBlock, block_b = invalidBlock;
    ScatterScratch scratch;
    for (BlockId b = 0; b < g.numBlocks() && block_a == invalidBlock;
         b++) {
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
            for (BlockId dst : g.scatterList(v, scratch).blk) {
                if (dst != b && (block_a == invalidBlock || dst < block_a)) {
                    block_b = b;
                    block_a = dst;
                }
            }
        }
    }
    ASSERT_NE(block_a, invalidBlock);

    // Adversarial interleaving.
    auto a_update = state.gatherBlock(p, block_a);     // 1
    auto b_update = state.gatherBlock(p, block_b);
    state.commitBlock(p, b_update, 0.0);               // 2
    EdgeId lost_window_writes = 0;
    for (EdgeId e = g.edgeBegin(block_a); e < g.edgeEnd(block_a); e++)
        lost_window_writes += state.pending()[e] != 0.0;
    state.commitBlock(p, a_update, 0.0);               // 3: consume!

    // B's increments into A's slice existed before A's commit and are
    // gone after it, without A having gathered them.
    EXPECT_GT(lost_window_writes, 0u);
    double survivors = 0.0;
    for (EdgeId e = g.edgeBegin(block_a); e < g.edgeEnd(block_a); e++)
        survivors += std::abs(state.pending()[e]);
    // Only A's own self-loop-block scatters could have repopulated it.
    EXPECT_LT(survivors, 1e-12 + 1.0);
}

TEST(PageRankDelta, StateBasedSurvivesTheSameInterleaving)
{
    // Same schedule, state-based machinery: the delayed SCATTER simply
    // overwrites with a newer whole value — nothing is lost, and the
    // fixed point is still reached afterwards.
    Rng rng(113);   // same graph as above
    EdgeList el = generateRmat(64, 512, rng);
    BlockPartition g(el, 8);
    PageRankProgram p(0.85);
    BcdState<PageRankProgram> state(g, p);

    auto a_update = state.processBlock(g, p, 0, 0.0);
    auto b_update = state.processBlock(g, p, 1, 0.0);
    state.commitBlock(g, p, b_update, 0.0);
    state.commitBlock(g, p, a_update, 0.0);   // overwrite, not consume

    // Finish with a normal engine run seeded from this state.
    EngineOptions opt;
    opt.blockSize = 8;
    opt.tolerance = 1e-13;
    SerialEngine<PageRankProgram> engine(g, p, opt);
    EngineReport report = engine.run(state);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(state.values()[v], ref[v], 1e-7);
}

TEST(PageRankDelta, RankMassIsConservedToFixpoint)
{
    // Regression for the residual leak: commitBlock used to absorb a
    // sub-tolerance gathered sum into the value WITHOUT scattering its
    // downstream alpha-share, so every such absorb leaked
    // alpha/(1-alpha) of the absorbed mass.  With the residual carry,
    //   sum(values) + (sum(pending) + sum(residuals)) / (1 - alpha)
    // is invariant (== 1) after every commit, and the fixpoint keeps
    // sum(values) ~= 1.  Ring + random chords: every vertex has an
    // out-edge, so no mass drains through dangling vertices.
    const double alpha = 0.85;
    Rng rng(114);
    EdgeList el = generateCycle(64);
    for (int i = 0; i < 128; i++) {
        const auto src = static_cast<VertexId>(rng.nextBounded(64));
        const auto dst = static_cast<VertexId>(rng.nextBounded(64));
        el.addEdge(src, dst);
    }
    BlockPartition g(el, 8);
    PageRankDeltaProgram p(alpha);
    DeltaState<PageRankDeltaProgram> state(g, p);
    const double tol = 1e-12;

    auto conserved = [&] {
        double v = 0.0, carried = 0.0;
        for (double x : state.values())
            v += x;
        for (double d : state.pending())
            carried += d;
        for (double r : state.residuals())
            carried += r;
        return v + carried / (1.0 - alpha);
    };
    EXPECT_NEAR(conserved(), 1.0, 1e-12);   // seed state

    auto sched = makeScheduler(Schedule::Cyclic, g.numBlocks(), 1);
    for (BlockId b = 0; b < g.numBlocks(); b++)
        sched->activate(b, 1.0);
    std::uint64_t commits = 0;
    while (auto b = sched->next()) {
        auto update = state.gatherBlock(p, *b);
        state.commitBlock(p, update, tol, sched.get());
        // The invariant holds after EVERY commit, not just at the end.
        if (++commits % 16 == 0) {
            ASSERT_NEAR(conserved(), 1.0, 1e-9) << commits << " commits";
        }
        ASSERT_LT(commits, 200000u) << "delta iteration diverged";
    }

    EXPECT_NEAR(conserved(), 1.0, 1e-9);
    double mass = 0.0;
    for (double x : state.values())
        mass += x;
    EXPECT_NEAR(mass, 1.0, 1e-9);   // parked residuals are sub-tol

    std::vector<double> ref = pagerankReference(el, alpha);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(state.values()[v], ref[v], 1e-7);
}

TEST(LabelPropagation, TwoCliquesSplitIntoTwoCommunities)
{
    // Two 6-cliques joined by a single bridge edge.
    EdgeList el(12);
    for (VertexId a = 0; a < 6; a++)
        for (VertexId b = 0; b < 6; b++)
            if (a != b)
                el.addEdge(a, b);
    for (VertexId a = 6; a < 12; a++)
        for (VertexId b = 6; b < 12; b++)
            if (a != b)
                el.addEdge(a, b);
    el.addEdge(5, 6);
    el.addEdge(6, 5);

    BlockPartition g(el, 4);
    EngineOptions opt;
    opt.blockSize = 4;
    opt.tolerance = 0.5;
    opt.maxEpochs = 100.0;
    SerialEngine<LabelPropagationProgram> engine(
        g, LabelPropagationProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    for (VertexId v = 1; v < 6; v++)
        EXPECT_EQ(labels[v], labels[0]);
    for (VertexId v = 7; v < 12; v++)
        EXPECT_EQ(labels[v], labels[6]);
    EXPECT_NE(labels[0], labels[6]);
}

TEST(LabelPropagation, AccumulatorMergeIsAssociative)
{
    LabelPropagationProgram p;
    auto t1 = p.edgeTerm(0.0, 3.0, 1.0f);
    auto t2 = p.edgeTerm(0.0, 3.0, 1.0f);
    auto t3 = p.edgeTerm(0.0, 7.0, 1.0f);
    auto left = p.combine(p.combine(t1, t2), t3);
    auto right = p.combine(t1, p.combine(t2, t3));
    EXPECT_EQ(left.counts, right.counts);
    EXPECT_EQ(left.counts.at(3), 2u);
    EXPECT_EQ(left.counts.at(7), 1u);
}

TEST(LabelPropagation, HysteresisPreventsTwoCycleOscillation)
{
    // Directed 2-cycle: without keep-old-on-tie, labels swap forever.
    EdgeList el = generateCycle(2);
    EdgeList sym = el.symmetrized();
    BlockPartition g(sym, 1);
    EngineOptions opt;
    opt.blockSize = 1;
    opt.tolerance = 0.5;
    opt.maxEpochs = 50.0;
    SerialEngine<LabelPropagationProgram> engine(
        g, LabelPropagationProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);
}

} // namespace
} // namespace graphabcd
