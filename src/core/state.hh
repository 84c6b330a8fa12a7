/**
 * @file
 * Mutable BCD state: vertex values plus edge-carried value copies.
 *
 * There is exactly one copy of the topology (in BlockPartition); this
 * class owns the value arrays that change during a run.  `edgeValues` is
 * parallel to the partition's CSC edge arrays: position e holds the
 * edge-carried copy of edgeSrc(e)'s value, written by SCATTER.
 */

#ifndef GRAPHABCD_CORE_STATE_HH
#define GRAPHABCD_CORE_STATE_HH

#include <cmath>
#include <vector>

#include "core/scheduler.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "support/logging.hh"

namespace graphabcd {

/**
 * Result of the GATHER-APPLY phase over one block, before SCATTER
 * commits it.  This mirrors the PE output buffer of the prototype.
 */
template <typename Value>
struct BlockUpdate
{
    BlockId block = invalidBlock;
    std::vector<Value> newValues;   //!< one per vertex in the block
    std::vector<double> deltas;     //!< |new - old| per vertex
    double l1Delta = 0.0;           //!< sum of deltas (priority estimate)
    VertexId changed = 0;           //!< vertices moving more than tol
};

/**
 * Vertex + edge-carried values of one run.
 *
 * One instance is driven by one thread at a time (SerialEngine, the
 * HarpSystem event loop, the GraphMat baseline); the layout decode
 * scratches are members under that contract.
 */
template <VertexProgram Program>
class BcdState
{
  public:
    using Value = typename Program::Value;

    BcdState() = default;

    /** Initialise values and edge copies from the program's init(). */
    BcdState(const BlockPartition &g, const Program &p) { reset(g, p); }

    /** Re-initialise in place. */
    void
    reset(const BlockPartition &g, const Program &p)
    {
        const VertexId n = g.numVertices();
        values_.resize(n);
        for (VertexId v = 0; v < n; v++)
            values_[v] = p.init(v, g);
        seedEdgeValues(g, p);
    }

    /**
     * Seed the run from explicit per-vertex values (warm start): adopt
     * `init` and re-derive every edge-carried copy, exactly as reset()
     * does from Program::init().  `init.size()` must equal |V|.
     */
    void
    setValues(const BlockPartition &g, const Program &p,
              std::vector<Value> init)
    {
        GRAPHABCD_ASSERT(init.size() == g.numVertices(),
                         "warm-start size must match |V|");
        values_ = std::move(init);
        seedEdgeValues(g, p);
    }

    const std::vector<Value> &values() const { return values_; }
    std::vector<Value> &values() { return values_; }

    const Value &value(VertexId v) const { return values_[v]; }

    const std::vector<Value> &edgeValues() const { return edgeValues_; }
    std::vector<Value> &edgeValues() { return edgeValues_; }

    /**
     * GATHER-APPLY over block b (no mutation): stream the block's
     * in-edge slice, reduce per destination vertex, apply.
     * @param tol per-vertex change threshold for the `changed` count.
     */
    BlockUpdate<Value>
    processBlock(const BlockPartition &g, const Program &p, BlockId b,
                 double tol) const
    {
        BlockUpdate<Value> out;
        out.block = b;
        const VertexId begin = g.blockBegin(b);
        const VertexId end = g.blockEnd(b);
        out.newValues.reserve(end - begin);
        out.deltas.reserve(end - begin);

        // Stream the slice through the layout: plain returns spans in
        // place, compressed decodes into the member scratch — either
        // way the partition's gather bytes-moved tally is charged.
        const BlockEdgesView slice = g.blockEdges(b, gatherScratch_);

        for (VertexId v = begin; v < end; v++) {
            auto acc = p.identity();
            const Value &old = values_[v];
            for (EdgeId e = g.inEdgeBegin(v); e < g.inEdgeEnd(v); e++) {
                acc = p.combine(acc, p.edgeTerm(old, edgeValues_[e],
                                                slice.wgt[e - slice.base]));
            }
            Value next = p.apply(v, acc, old, g);
            double d = p.delta(old, next);
            GRAPHABCD_ASSERT(!(d < 0.0), "delta() must be non-negative");
            out.l1Delta += d;
            if (d > tol)
                out.changed++;
            out.newValues.push_back(next);
            out.deltas.push_back(d);
        }
        return out;
    }

    /**
     * SCATTER: commit a block update — write the new vertex values and
     * copy each changed vertex's edge value onto its out-edges.  State-
     * based (whole values, not deltas), so replays are idempotent.
     * @param tol vertices moving by <= tol skip the edge copies.
     * @param sched if set, activated once per distinct block written,
     *        with the L1 sum of the edge deltas written into it.
     * @return number of out-edge positions written (random writes).
     */
    EdgeId
    commitBlock(const BlockPartition &g, const Program &p,
                const BlockUpdate<Value> &update, double tol,
                BlockScheduler *sched = nullptr)
    {
        const VertexId begin = g.blockBegin(update.block);
        EdgeId writes = 0;
        for (std::size_t i = 0; i < update.newValues.size(); i++) {
            const VertexId v = begin + static_cast<VertexId>(i);
            values_[v] = update.newValues[i];
            if (update.deltas[i] > tol) {
                const ScatterView out = g.scatterList(v, scatterScratch_);
                if (out.empty())
                    continue;
                Value ev = p.edgeValue(v, values_[v], g);
                // Gauss-Southwell estimate: the perturbation a
                // destination block actually receives is the change of
                // the *edge-carried* value (e.g. rank/degree for PR).
                // All of v's out-edges carried the same old copy, so
                // the first position serves as the old value.
                const double edge_delta =
                    p.delta(edgeValues_[out.pos.front()], ev);
                for (std::size_t j = 0; j < out.size(); j++) {
                    edgeValues_[out.pos[j]] = ev;
                    activations_.add(out.blk[j], edge_delta);
                }
                writes += out.size();
            }
        }
        g.chargeScatterBytes(scatterScratch_);
        if (sched)
            activations_.commit(*sched);
        else
            activations_.flush([](BlockId, double) {});
        return writes;
    }

  private:
    /**
     * Derive every edge-carried copy from the current vertex values.
     * Walks destination in-lists (position order), which works in every
     * layout; the per-source copies are precomputed once.
     */
    void
    seedEdgeValues(const BlockPartition &g, const Program &p)
    {
        const VertexId n = g.numVertices();
        std::vector<Value> ev(n);
        for (VertexId v = 0; v < n; v++)
            ev[v] = p.edgeValue(v, values_[v], g);
        edgeValues_.resize(g.numEdges());
        activations_.resize(g.numBlocks());
        for (VertexId v = 0; v < n; v++) {
            g.forEachInEdge(v, [&](EdgeId pos, VertexId src, float) {
                edgeValues_[pos] = ev[src];
            });
        }
    }

    std::vector<Value> values_;
    std::vector<Value> edgeValues_;

    // Layout decode buffers and the activation batch; see the class
    // contract above.
    mutable EdgeSliceScratch gatherScratch_;
    ScatterScratch scatterScratch_;
    BlockActivations activations_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_STATE_HH
