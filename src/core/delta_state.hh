/**
 * @file
 * Operation-based (delta) update state — the counter-example of paper
 * Sec. IV-A3.
 *
 * GraphABCD proper is *state-based*: SCATTER writes whole values, so a
 * delayed or replayed propagation is harmless and no synchronization is
 * needed.  The *operation-based* alternative (e.g. PageRank Delta)
 * ships increments instead: edges carry pending deltas that GATHER must
 * consume (read-and-zero) and SCATTER must accumulate (read-add-write).
 * Both are read-modify-write cycles, so overlapping block processing
 * can overwrite or double-count updates — which is exactly why the
 * paper rejects operation-based updates for its barrierless design.
 *
 * This header implements the operation-based machinery faithfully (it
 * is correct under serial or barriered execution) so that tests and the
 * ablation bench can demonstrate the lost-update anomaly under
 * asynchronous interleavings.  Sub-tolerance residuals are carried in a
 * per-vertex side slot rather than dropped: an early version absorbed a
 * gathered sub-tolerance sum into the value without ever re-scattering
 * its downstream share, which leaked PageRank mass even under serial
 * execution (the regression test pins sum(values) ~= 1 at fixpoint).
 * The safe-by-construction variant of this machinery is
 * src/core/accum_engine.hh.
 */

#ifndef GRAPHABCD_CORE_DELTA_STATE_HH
#define GRAPHABCD_CORE_DELTA_STATE_HH

#include <concepts>
#include <span>
#include <vector>

#include "core/options.hh"
#include "core/scheduler.hh"
#include "graph/partition.hh"
#include "support/logging.hh"

namespace graphabcd {

/**
 * Contract of an operation-based vertex program: values are scalars
 * accumulated additively on the edges.
 */
template <typename P>
concept DeltaProgram = requires(const P p, typename P::Value v,
                                VertexId vid, const BlockPartition &g) {
    typename P::Value;
    { p.init(vid, g) } -> std::convertible_to<typename P::Value>;
    { p.initialPending(vid, g) }
        -> std::convertible_to<typename P::Value>;
    { p.scatterDelta(vid, v, v, g) }
        -> std::convertible_to<typename P::Value>;
    { p.delta(v, v) } -> std::convertible_to<double>;
};

/**
 * PageRank Delta: the operation-based variant of PageRank (paper
 * Sec. IV-A3 names it explicitly).  Edges carry pending rank
 * increments; GATHER sums and consumes them; SCATTER adds
 * alpha * (x_new - x_old) / outdeg to each out-edge.
 */
struct PageRankDeltaProgram
{
    using Value = double;

    double alpha = 0.85;

    explicit PageRankDeltaProgram(double damping = 0.85)
        : alpha(damping)
    {}

    Value
    init(VertexId, const BlockPartition &g) const
    {
        return (1.0 - alpha) / std::max<double>(g.numVertices(), 1.0);
    }

    /** Pending increment seeded on out-edges at start. */
    Value
    initialPending(VertexId v, const BlockPartition &g) const
    {
        const std::uint32_t d = g.outDegree(v);
        return d ? alpha * init(v, g) / d : 0.0;
    }

    /** Increment shipped when a vertex moves old -> next. */
    Value
    scatterDelta(VertexId v, Value old_value, Value next,
                 const BlockPartition &g) const
    {
        const std::uint32_t d = g.outDegree(v);
        return d ? alpha * (next - old_value) / d : 0.0;
    }

    double delta(Value a, Value b) const { return std::abs(a - b); }
};

/** GATHER result of one block under operation-based semantics. */
template <typename Value>
struct DeltaBlockUpdate
{
    BlockId block = invalidBlock;
    std::vector<Value> newValues;
    std::vector<double> deltas;
};

/**
 * Operation-based BCD state: `pending` is parallel to the partition's
 * CSC edge arrays and holds un-consumed increments.
 */
template <DeltaProgram Program>
class DeltaState
{
  public:
    using Value = typename Program::Value;

    DeltaState(const BlockPartition &g, const Program &p)
        : graph(g), activations_(g.numBlocks())
    {
        const VertexId n = g.numVertices();
        // Each source's out-edge CSC positions, in the partition's
        // out-edge slot order (ascending), by a counting sort over the
        // in-edges: SCATTER accumulates into CSC-ordered pending slots.
        outBegin_.assign(static_cast<std::size_t>(n) + 1, 0);
        for (VertexId v = 0; v < n; v++)
            outBegin_[v + 1] = outBegin_[v] + g.outDegree(v);
        outPos_.resize(g.numEdges());
        std::vector<EdgeId> cursor(outBegin_.begin(), outBegin_.end() - 1);
        for (VertexId v = 0; v < n; v++) {
            g.forEachInEdge(v, [&](EdgeId pos, VertexId src, float) {
                outPos_[cursor[src]++] = pos;
            });
        }

        values_.resize(n);
        pending_.assign(g.numEdges(), Value{});
        residual_.assign(n, Value{});
        for (VertexId v = 0; v < n; v++) {
            values_[v] = p.init(v, g);
            Value seed = p.initialPending(v, g);
            for (EdgeId i = outBegin_[v]; i < outBegin_[v + 1]; i++)
                pending_[outPos_[i]] = seed;
        }
    }

    const std::vector<Value> &values() const { return values_; }
    const std::vector<Value> &pending() const { return pending_; }
    /** Carried sub-tolerance sums, one per vertex (conservation). */
    const std::vector<Value> &residuals() const { return residual_; }

    /**
     * GATHER without consuming: reads the pending increments of block
     * b.  Kept separate from commit so tests can build adversarial
     * interleavings.
     */
    DeltaBlockUpdate<Value>
    gatherBlock(const Program &p, BlockId b) const
    {
        DeltaBlockUpdate<Value> out;
        out.block = b;
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            // Seed from the carried residual: sub-tolerance sums from
            // earlier commits stay in play instead of being dropped.
            Value acc = residual_[v];
            for (EdgeId e = graph.inEdgeBegin(v);
                 e < graph.inEdgeEnd(v); e++)
                acc += pending_[e];
            Value next = values_[v] + acc;
            out.newValues.push_back(next);
            out.deltas.push_back(p.delta(values_[v], next));
        }
        return out;
    }

    /**
     * Commit: CONSUME the block's in-edge slice (zero it — this is the
     * read-modify-write that loses concurrent writes), store the new
     * values, and ACCUMULATE the out-going increments.
     * @param sched if set, activated once per distinct block written,
     *        with the L1 sum of the |delta| of every increment written
     *        into it.
     * @return out-edge positions written.
     */
    EdgeId
    commitBlock(const Program &p, const DeltaBlockUpdate<Value> &update,
                double tol, BlockScheduler *sched = nullptr)
    {
        // Consume: anything scattered into this slice after the gather
        // snapshot is destroyed here — the lost-update anomaly.
        for (EdgeId e = graph.edgeBegin(update.block);
             e < graph.edgeEnd(update.block); e++)
            pending_[e] = Value{};

        EdgeId writes = 0;
        const VertexId begin = graph.blockBegin(update.block);
        for (std::size_t i = 0; i < update.newValues.size(); i++) {
            const VertexId v = begin + static_cast<VertexId>(i);
            if (update.deltas[i] <= tol) {
                // Sub-tolerance: do NOT absorb the sum into the value
                // (its downstream alpha-share would never scatter and
                // the mass would leak).  Park it in the residual slot;
                // the next gather of this block re-reads it.
                residual_[v] = update.newValues[i] - values_[v];
                continue;
            }
            Value inc = p.scatterDelta(v, values_[v],
                                       update.newValues[i], graph);
            values_[v] = update.newValues[i];
            residual_[v] = Value{};   // consumed by this gather
            const std::span<const BlockId> blk =
                graph.scatterBlocks(v, scatterScratch_);
            const EdgeId *pos = outPos_.data() + outBegin_[v];
            for (std::size_t j = 0; j < blk.size(); j++) {
                pending_[pos[j]] += inc;   // accumulate, not overwrite
                activations_.add(blk[j], update.deltas[i]);
            }
            writes += blk.size();
        }
        graph.chargeScatterBytes(scatterScratch_);
        if (sched)
            activations_.commit(*sched);
        else
            activations_.flush([](BlockId, double) {});
        return writes;
    }

  private:
    const BlockPartition &graph;
    std::vector<Value> values_;
    std::vector<Value> pending_;
    std::vector<Value> residual_;
    std::vector<EdgeId> outBegin_;   //!< size V+1, into outPos_
    std::vector<EdgeId> outPos_;     //!< size E, CSC positions by source
    // One thread drives an instance (serial/barriered by design — see
    // the file comment), so the bytes tally and the activation batch
    // are members.
    ScatterScratch scatterScratch_;
    BlockActivations activations_;
};

/**
 * Serial operation-based engine (correct: gather and commit are
 * adjacent, i.e. implicitly barriered per block).
 * @return epochs to quiescence.
 */
template <DeltaProgram Program>
double
runDeltaSerial(const BlockPartition &g, const Program &p,
               std::vector<typename Program::Value> &out, double tol,
               double max_epochs = 1000.0,
               Schedule schedule = Schedule::Cyclic)
{
    DeltaState<Program> state(g, p);
    auto sched = makeScheduler(schedule, g.numBlocks(), 1);
    for (BlockId b = 0; b < g.numBlocks(); b++)
        sched->activate(b, 1.0);

    std::uint64_t updates = 0;
    const double n = std::max<double>(g.numVertices(), 1.0);
    while (auto b = sched->next()) {
        auto update = state.gatherBlock(p, *b);
        state.commitBlock(p, update, tol, sched.get());
        updates += g.blockVertexCount(*b);
        if (static_cast<double>(updates) / n >= max_epochs)
            break;
    }
    out = state.values();
    return static_cast<double>(updates) / n;
}

} // namespace graphabcd

#endif // GRAPHABCD_CORE_DELTA_STATE_HH
