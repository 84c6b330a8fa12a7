/**
 * @file
 * Mutable BCD state: vertex values plus one published edge copy per
 * vertex, and the one GATHER-APPLY / SCATTER kernel over them.
 *
 * There is exactly one copy of the topology (in BlockPartition); the
 * state owns the two |V|-sized arrays that change during a run.
 * `published[u]` is edgeValue(u, values[u]) as of u's last SCATTER:
 * the copy every out-edge of u carries in the paper's edge-carried
 * layout (Sec. IV-A2).  All of u's out-edges carry the same copy, so
 * one slot per vertex holds what the per-edge copies held.  GATHER
 * reads published[src] through the slice's source ids; SCATTER stores
 * the new copy once, and then one activation step per block feeds the
 * activation batch (activateDestinations).  A vertex moving by <= tol
 * does not scatter and keeps its old copy.  HARP still charges the
 * paper's edge-carried bytes by formula (DESIGN.md §1).
 *
 * ValueArrays is written once over its slot type: plain Values for the
 * single-threaded users (SerialEngine and the HARP simulator, through
 * BcdState) and relaxed atomics for AsyncEngine's participants.
 */

#ifndef GRAPHABCD_CORE_STATE_HH
#define GRAPHABCD_CORE_STATE_HH

#include <atomic>
#include <span>
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

/** Plain or relaxed-atomic access to one value slot. */
template <typename V>
V loadSlot(const V &s) { return s; }

template <typename V>
V
loadSlot(const std::atomic<V> &s)
{
    return s.load(std::memory_order_relaxed);
}

template <typename V>
void storeSlot(V &s, const V &v) { s = v; }

template <typename V>
void
storeSlot(std::atomic<V> &s, const V &v)
{
    s.store(v, std::memory_order_relaxed);
}

/** What SCATTER of one block did. */
struct ScatterCounts
{
    EdgeId scatters = 0;            //!< out-edges scattered to
    EdgeId activationEntries = 0;   //!< sidecar or union entries walked
};

/**
 * SCATTER of block b, second half: add the destination blocks of the
 * vertices ValueArrays::publish() queued in `scratch` to `activations`,
 * then empty the queue and charge the bytes read.
 *
 * The dense/sparse frontier switch of Ligra's edgeMap and Beamer et
 * al.'s direction-optimizing BFS, per block: when the queued vertices'
 * out-degrees reach half of b's out-edges, the block adds its union of
 * destination blocks once, each with the summed change of the queued
 * copies, which may activate a block none of the queued vertices write
 * into.  Otherwise it walks each queued vertex's sidecar with that
 * vertex's change, exactly as per-edge activation.  Over-activation is
 * safe for state-based engines: a block whose inputs did not move
 * re-gathers to the same values.
 * @return sidecar or union entries walked.
 */
inline EdgeId
activateDestinations(const BlockPartition &g, BlockId b,
                     ScatterScratch &scratch,
                     BlockActivations &activations)
{
    if (scratch.scattered.empty())
        return 0;
    EdgeId walked = 0;
    if (2 * scratch.scatteredEdges >= g.blockOutEdgeCount(b)) {
        double sum = 0.0;
        for (const auto &[v, delta] : scratch.scattered) {
            if (delta > 0.0)
                sum += delta;
        }
        const std::span<const BlockId> blocks = g.scatterUnion(b, scratch);
        for (BlockId d : blocks)
            activations.add(d, sum);
        walked = blocks.size();
    } else {
        for (const auto &[v, delta] : scratch.scattered) {
            const std::span<const BlockId> blocks =
                g.scatterBlocks(v, scratch);
            for (BlockId d : blocks)
                activations.add(d, delta);
            walked += blocks.size();
        }
    }
    scratch.scattered.clear();
    scratch.scatteredEdges = 0;
    g.chargeScatterBytes(scratch);
    return walked;
}

/**
 * The two value arrays of one run over `Slot` storage (Value or
 * std::atomic<Value>).  Threaded users keep one writer per vertex: a
 * vertex is written only by its own block's kernel, and a pump runs a
 * block on one participant at a time.
 */
template <VertexProgram Program, typename Slot>
struct ValueArrays
{
    using Value = typename Program::Value;

    std::vector<Slot> values;      //!< |V| vertex values
    std::vector<Slot> published;   //!< |V| edge copies, see file comment

    /** Adopt values init(v) and publish every vertex's edge copy. */
    template <typename Init>
    void
    seed(const BlockPartition &g, const Program &p, Init &&init)
    {
        const VertexId n = g.numVertices();
        values = std::vector<Slot>(n);
        published = std::vector<Slot>(n);
        for (VertexId v = 0; v < n; v++) {
            const Value x = init(v);
            storeSlot(values[v], x);
            storeSlot(published[v], p.edgeValue(v, x, g));
        }
    }

    /** GATHER-APPLY of vertex v (value `old`) over its in-edges in
     *  `slice`, reading each source's published copy. */
    Value
    gatherApply(const BlockPartition &g, const Program &p, VertexId v,
                const Value &old, const BlockEdgesView &slice) const
    {
        auto acc = p.identity();
        const EdgeId end = g.inEdgeEnd(v) - slice.base;
        for (EdgeId i = g.inEdgeBegin(v) - slice.base; i < end; i++) {
            acc = p.combine(
                acc, p.edgeTerm(old, loadSlot(published[slice.src[i]]),
                                slice.wgt[i]));
        }
        return p.apply(v, acc, old, g);
    }

    /**
     * SCATTER v's new value, first half: store its edge copy now, so a
     * vertex later in the block reads it (in-block Gauss-Seidel), and
     * queue v in `scratch` for the block's activateDestinations() with
     * the change of the copy (the Gauss-Southwell estimate: what a
     * destination block actually receives, e.g. rank/degree for PR).
     * @return out-edges scattered to.
     */
    EdgeId
    publish(const BlockPartition &g, const Program &p, VertexId v,
            const Value &next, ScatterScratch &scratch)
    {
        const EdgeId degree = g.outDegree(v);
        if (degree == 0)
            return 0;
        const Value ev = p.edgeValue(v, next, g);
        scratch.scattered.emplace_back(v, p.delta(loadSlot(published[v]),
                                                  ev));
        scratch.scatteredEdges += degree;
        storeSlot(published[v], ev);
        return degree;
    }

    /**
     * GATHER-APPLY over block b without committing: stream the block's
     * in-edge slice (plain spans in place, compressed decoded into
     * `scratch`; either way the partition's gather tally is charged).
     * @param tol per-vertex change threshold for the `changed` count.
     */
    BlockUpdate<Value>
    gatherBlock(const BlockPartition &g, const Program &p, BlockId b,
                double tol, EdgeSliceScratch &scratch) const
    {
        BlockUpdate<Value> out;
        out.block = b;
        out.newValues.reserve(g.blockVertexCount(b));
        out.deltas.reserve(g.blockVertexCount(b));
        const BlockEdgesView slice = g.blockEdges(b, scratch);
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
            const Value old = loadSlot(values[v]);
            const Value next = gatherApply(g, p, v, old, slice);
            const double d = p.delta(old, next);
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
     * SCATTER a block update: store the new values, publish every
     * vertex moving by more than `tol`, then activate their destination
     * blocks.  State-based (whole values, not deltas), so replays are
     * idempotent.
     */
    ScatterCounts
    commit(const BlockPartition &g, const Program &p,
           const BlockUpdate<Value> &update, double tol,
           ScatterScratch &scratch, BlockActivations &activations)
    {
        const VertexId begin = g.blockBegin(update.block);
        ScatterCounts counts;
        for (std::size_t i = 0; i < update.newValues.size(); i++) {
            const VertexId v = begin + static_cast<VertexId>(i);
            storeSlot(values[v], update.newValues[i]);
            if (update.deltas[i] > tol) {
                counts.scatters +=
                    publish(g, p, v, update.newValues[i], scratch);
            }
        }
        counts.activationEntries =
            activateDestinations(g, update.block, scratch, activations);
        return counts;
    }
};

/**
 * The plain-storage state of one run.
 *
 * One instance is driven by one thread at a time (SerialEngine, the
 * HarpSystem event loop); the layout decode scratches and the
 * activation batch are members under that contract.
 */
template <VertexProgram Program>
class BcdState
{
  public:
    using Value = typename Program::Value;

    /** Initialise values and published copies from Program::init(). */
    BcdState(const BlockPartition &g, const Program &p)
        : activations_(g.numBlocks())
    {
        arrays_.seed(g, p, [&](VertexId v) { return p.init(v, g); });
    }

    /**
     * Seed the run from explicit per-vertex values (warm start), exactly
     * as the constructor does from Program::init().  `init.size()` must
     * equal |V|.
     */
    void
    setValues(const BlockPartition &g, const Program &p,
              const std::vector<Value> &init)
    {
        GRAPHABCD_ASSERT(init.size() == g.numVertices(),
                         "warm-start size must match |V|");
        arrays_.seed(g, p, [&](VertexId v) { return init[v]; });
    }

    const std::vector<Value> &values() const { return arrays_.values; }

    const Value &value(VertexId v) const { return arrays_.values[v]; }

    /** GATHER-APPLY over block b (no mutation); see ValueArrays. */
    BlockUpdate<Value>
    processBlock(const BlockPartition &g, const Program &p, BlockId b,
                 double tol) const
    {
        return arrays_.gatherBlock(g, p, b, tol, gatherScratch_);
    }

    /**
     * SCATTER: commit a block update (see ValueArrays::commit).
     * @param sched if set, activated once per distinct block
     *        activateDestinations() added.
     */
    ScatterCounts
    commitBlock(const BlockPartition &g, const Program &p,
                const BlockUpdate<Value> &update, double tol,
                BlockScheduler *sched = nullptr)
    {
        const ScatterCounts counts = arrays_.commit(
            g, p, update, tol, scatterScratch_, activations_);
        if (sched)
            activations_.commit(*sched);
        else
            activations_.flush([](BlockId, double) {});
        return counts;
    }

  private:
    ValueArrays<Program, Value> arrays_;

    // Layout decode buffers and the activation batch; see the class
    // contract above.
    mutable EdgeSliceScratch gatherScratch_;
    ScatterScratch scatterScratch_;
    BlockActivations activations_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_STATE_HH
