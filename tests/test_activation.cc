/**
 * @file
 * Tests of the per-block activation batch (BlockActivations) and the
 * per-block activation step feeding it: a commit activates each block
 * once, either exactly the blocks its SCATTER wrote into with the L1
 * sum of the deltas written (read from the destination-block sidecar),
 * or, when most of the block's out-edges scattered, the block's union
 * of destination blocks at the summed delta.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/delta_state.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"

namespace graphabcd {
namespace {

/**
 * 24 vertices in blocks of 4.  Vertices 0..19 carry a random graph with
 * a self-loop on 5 (block 1 writes into itself).  Vertex 22 has no
 * in-edges and one out-edge into its own block 5, which nothing else
 * writes into: a commit of block 5 activates it with a zero delta only.
 */
EdgeList
activationGraph()
{
    Rng rng(31);
    EdgeList el(24);
    for (int i = 0; i < 110; i++) {
        el.addEdge(static_cast<VertexId>(rng.nextBounded(20)),
                   static_cast<VertexId>(rng.nextBounded(20)));
    }
    el.addEdge(5, 5);
    el.addEdge(22, 23);
    return el;
}

/** Per-block L1 sums of a per-edge activation, built by brute force. */
using Reference = std::map<BlockId, double>;

void
addPerEdge(const BlockPartition &g, VertexId v, double delta,
           Reference &ref)
{
    for (EdgeId pos = 0; pos < g.numEdges(); pos++) {
        if (g.edgeSrc(pos) != v)
            continue;
        double &sum = ref[g.blockOf(g.edgeDst(pos))];
        if (delta > 0.0)
            sum += delta;
    }
}

/** The scheduler holds exactly ref's blocks, at ref's priorities. */
void
expectMatches(BlockScheduler &sched, const Reference &ref, BlockId blocks)
{
    for (BlockId b = 0; b < blocks; b++) {
        const auto it = ref.find(b);
        const double want = it == ref.end() ? 0.0 : it->second;
        if (sched.kind() == Schedule::Priority) {
            EXPECT_NEAR(sched.priority(b), want, 1e-12 * (1.0 + want))
                << "block " << b;
        }
    }
    std::set<BlockId> active;
    while (auto b = sched.next())
        active.insert(*b);
    std::set<BlockId> want;
    for (const auto &[b, sum] : ref)
        want.insert(b);
    EXPECT_EQ(active, want);
}

const Schedule kSchedules[] = {Schedule::Cyclic, Schedule::Priority,
                               Schedule::Random};

/**
 * A state-based commit activates per block (activateDestinations):
 * under the half-out-edge threshold exactly the per-edge sums, over it
 * exactly the block's union of destination blocks, each at the summed
 * change of the scattered copies — a superset of the per-edge set.
 * Operation-based DeltaState keeps its exact per-edge walk.
 */
TEST(Activation, BatchIsPerEdgeSumsOrTheBlockUnion)
{
    const EdgeList el = activationGraph();
    const BlockPartition g(el, 4);
    const PageRankProgram pr(0.85);
    const PageRankDeltaProgram prd(0.85);

    for (Schedule schedule : kSchedules) {
        SCOPED_TRACE(to_string(schedule));
        BcdState<PageRankProgram> state(g, pr);
        DeltaState<PageRankDeltaProgram> delta(g, prd);
        // The published copies: a vertex's copy moves only when it
        // scatters (moves by more than tol and has out-edges).
        std::vector<double> pub(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); v++)
            pub[v] = pr.edgeValue(v, state.value(v), g);

        // Commit `update` at `tol` and check the activated set, its
        // priorities and the returned counts against the model.
        std::size_t dense = 0, sparse = 0;
        auto commit = [&](const BlockUpdate<double> &update, double tol) {
            const BlockId b = update.block;
            Reference per_edge, written;
            EdgeId scattered_edges = 0;
            double sum = 0.0;
            for (std::size_t i = 0; i < update.newValues.size(); i++) {
                const VertexId v =
                    g.blockBegin(b) + static_cast<VertexId>(i);
                addPerEdge(g, v, 0.0, written);
                if (!(update.deltas[i] > tol) || g.outDegree(v) == 0)
                    continue;
                const double ev = pr.edgeValue(v, update.newValues[i], g);
                const double d = pr.delta(pub[v], ev);
                pub[v] = ev;
                addPerEdge(g, v, d, per_edge);
                scattered_edges += g.outDegree(v);
                sum += d;
            }
            auto sched = makeScheduler(schedule, g.numBlocks(), 7);
            const ScatterCounts counts =
                state.commitBlock(g, pr, update, tol, sched.get());
            EXPECT_EQ(counts.scatters, scattered_edges);
            if (scattered_edges == 0) {
                EXPECT_EQ(counts.activationEntries, 0u);
                expectMatches(*sched, {}, g.numBlocks());
            } else if (2 * scattered_edges >= g.blockOutEdgeCount(b)) {
                dense++;
                Reference want;
                for (const auto &[d, unused] : written)
                    want[d] = sum;
                for (const auto &[d, unused] : per_edge)
                    EXPECT_EQ(want.count(d), 1u) << "block " << d;
                EXPECT_EQ(counts.activationEntries, want.size());
                expectMatches(*sched, want, g.numBlocks());
            } else {
                sparse++;
                EXPECT_EQ(counts.activationEntries, scattered_edges);
                expectMatches(*sched, per_edge, g.numBlocks());
            }
            return sum;
        };

        bool zero_only_block = false;
        for (BlockId b = 0; b < g.numBlocks(); b++) {
            SCOPED_TRACE("block " + std::to_string(b));
            BlockUpdate<double> update = state.processBlock(g, pr, b, 0.0);
            if (b % 2 == 0) {
                commit(update, 0.0);
                // Re-commit the block's current values as if each
                // vertex had moved: every edge delta is exactly zero,
                // and every block written to must still activate.
                BlockUpdate<double> same = update;
                std::fill(same.deltas.begin(), same.deltas.end(), 1.0);
                EXPECT_EQ(commit(same, 0.0), 0.0);
            } else {
                // Only the vertices moving most scatter, which keeps a
                // block whose other vertices have out-edges under the
                // threshold.
                std::vector<double> sorted = update.deltas;
                std::ranges::sort(sorted);
                commit(update, sorted[sorted.size() - 2]);
            }

            // Operation-based: every non-skipped vertex activates with
            // its own |delta|; tol < 0 scatters zero deltas too.
            DeltaBlockUpdate<double> du = delta.gatherBlock(prd, b);
            Reference dref;
            for (std::size_t i = 0; i < du.newValues.size(); i++) {
                const VertexId v =
                    g.blockBegin(b) + static_cast<VertexId>(i);
                addPerEdge(g, v, du.deltas[i], dref);
            }
            if (b == g.blockOf(22)) {
                ASSERT_EQ(dref.count(b), 1u);
                EXPECT_EQ(dref.at(b), 0.0);
                zero_only_block = true;
            }
            auto dsched = makeScheduler(schedule, g.numBlocks(), 7);
            delta.commitBlock(prd, du, -1.0, dsched.get());
            expectMatches(*dsched, dref, g.numBlocks());
        }
        EXPECT_TRUE(zero_only_block);
        EXPECT_GT(dense, 0u);
        EXPECT_GT(sparse, 0u);
    }
}

TEST(Activation, BatchDeduplicatesInFirstTouchOrder)
{
    BlockActivations batch(8);
    batch.add(5, 1.0);
    batch.add(2, 0.5);
    batch.add(5, 2.0);
    batch.add(7, 0.0);
    batch.add(2, -3.0);   // clamped: adds nothing
    EXPECT_EQ(batch.size(), 3u);

    std::vector<std::pair<BlockId, double>> seen;
    batch.flush([&](BlockId b, double l1) { seen.emplace_back(b, l1); });
    const std::vector<std::pair<BlockId, double>> want{
        {5, 3.0}, {2, 0.5}, {7, 0.0}};
    EXPECT_EQ(seen, want);
    EXPECT_TRUE(batch.empty());

    // A flushed batch starts over.
    batch.add(7, 1.5);
    auto sched = makeScheduler(Schedule::Priority, 8, 1);
    batch.commit(*sched);
    EXPECT_EQ(sched->activeCount(), 1u);
    EXPECT_DOUBLE_EQ(sched->priority(7), 1.5);
    EXPECT_TRUE(batch.empty());
}

/**
 * Concurrent participants each fill their own batch and commit it
 * under the pump's lock.  The fixpoints must match
 * the exact references on every schedule; the tsan leg of tools/ci.sh
 * runs this.
 */
TEST(Activation, ConcurrentBatchesReachTheReferenceFixpoint)
{
    Rng rng(32);
    const EdgeList el = generateRmat(600, 5000, rng, {.weighted = true});
    const std::vector<double> pr_ref = pagerankReference(el, 0.85);
    const std::vector<double> sssp_ref = dijkstraReference(el, 0);
    for (GraphLayout layout :
         {GraphLayout::Plain, GraphLayout::Compressed}) {
        LayoutOptions lo;
        lo.layout = layout;
        const BlockPartition g(el, 16, lo);
        for (Schedule schedule :
             {Schedule::Cyclic, Schedule::Priority, Schedule::Random}) {
            SCOPED_TRACE(std::string(to_string(layout)) + "/" +
                         to_string(schedule));
            EngineOptions opt;
            opt.blockSize = 16;
            opt.tolerance = 1e-12;
            opt.numThreads = 4;
            opt.schedule = schedule;

            std::vector<double> x;
            EngineReport r =
                AccumEngine<PageRankProgram>(g, PageRankProgram(0.85), opt)
                    .run(x);
            EXPECT_TRUE(r.converged);
            for (VertexId v = 0; v < g.numVertices(); v++)
                ASSERT_NEAR(x[v], pr_ref[v], 1e-7) << "accum pr " << v;

            std::vector<double> d;
            r = AccumEngine<SsspProgram>(g, SsspProgram(0), opt).run(d);
            EXPECT_TRUE(r.converged);
            for (VertexId v = 0; v < g.numVertices(); v++)
                ASSERT_NEAR(d[v], sssp_ref[v], 1e-6) << "accum sssp " << v;

            r = AsyncEngine<PageRankProgram>(g, PageRankProgram(0.85), opt)
                    .run(x);
            EXPECT_TRUE(r.converged);
            for (VertexId v = 0; v < g.numVertices(); v++)
                ASSERT_NEAR(x[v], pr_ref[v], 1e-7) << "async pr " << v;

            r = AsyncEngine<SsspProgram>(g, SsspProgram(0), opt).run(d);
            EXPECT_TRUE(r.converged);
            for (VertexId v = 0; v < g.numVertices(); v++)
                ASSERT_NEAR(d[v], sssp_ref[v], 1e-6) << "async sssp " << v;
        }
    }
}

} // namespace
} // namespace graphabcd
