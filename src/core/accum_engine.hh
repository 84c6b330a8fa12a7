/**
 * @file
 * Accumulative (delta) BCD engine — Maiter-style delta propagation made
 * safe under barrierless execution.
 *
 * The paper rejects operation-based updates because the per-edge
 * pending arrays of PageRank-Delta put a read-modify-write window
 * between GATHER's consume and SCATTER's accumulate (Sec. IV-A3; the
 * anomaly is reproduced by src/core/delta_state.hh).  Maiter's insight
 * is that the window is an artifact of the *layout*, not of delta
 * propagation itself: give every vertex ONE pending accumulator whose
 * combine (add for PageRank, min for path problems) commutes and
 * associates, and a delta can be moved, merged and applied in any
 * order without being overwritten or double-counted.
 *
 * Ownership follows the paper's unit of work, the block (DESIGN.md
 * §10.1).  The pump claims a block exclusively, and each block's
 * accumulators sit behind one mutex.  The kernel takes that lock once
 * to move the claimed block's accumulators into the participant's
 * buffer and once to combine back what is left; every delta it ships
 * to another block is pre-combined in the same buffer and lands with
 * one lock per destination block.  A delta is therefore always in
 * exactly one accumulator or one participant's buffer, guarded by the
 * lock or owned by that participant: no per-vertex or per-edge atomic
 * read-modify-write is needed.  Deltas into the claimed block combine
 * into the buffer, so later vertices of the block read them in the
 * same pass (in-block Gauss-Seidel).
 *
 * Conservation: a delta whose application would move the value by less
 * than the tolerance is not dropped but stays pending, so value mass is
 * conserved *by construction*: for PageRank,
 * sum(values) + sum(pending)/(1-alpha) == 1 holds whenever no buffer
 * holds a delta (after every block), and the fixpoint drops rank mass
 * only through the per-vertex tolerance, never through lost residuals.
 *
 * Scheduling: every combine into an accumulator is followed, under the
 * same lock, by Maiter's activation filter on the exact total — a
 * block is woken only when one of its vertices' whole pending would
 * move its value by more than the tolerance — so sub-tolerance traffic
 * parks in the accumulator (conserved) instead of churning the
 * worklist, and no wake-up is lost.  A block's priority grows by the
 * estimated moves of the deltas it received (Gauss-Southwell).
 * Activations collect in the participant's per-block batch
 * (BlockActivations), which the pump commits under the control lock,
 * exactly like AsyncEngine.
 *
 * Programs: the engine runs the GAS programs themselves
 * (AccumEngine<SsspProgram>).  Any Accumulable program — sum
 * accumulation with a linear apply, or min accumulation — has its delta
 * form derived by detail::DeltaForm below; no algorithm is written
 * twice.
 *
 * Threading is AsyncEngine's: both run on the shared BlockPump, so
 * no threads are spawned and StopToken and the maxEpochs budget halt
 * the run without ever claiming convergence while work remains.
 */

#ifndef GRAPHABCD_CORE_ACCUM_ENGINE_HH
#define GRAPHABCD_CORE_ACCUM_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/block_pump.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

namespace detail {

/**
 * The delta form of an Accumulable GAS program, derived rather than
 * written by hand (Maiter's conditions; DESIGN.md §10.1).  A vertex's
 * value starts at GATHER's identity, absorbing a delta is one
 * combine, and a move's size is the program's delta().  What is left
 * to derive is the seed work, what an applied vertex ships, and what
 * a sub-tolerance delta folds back.
 */
template <Accumulable P>
struct DeltaForm
{
    using Value = typename P::Value;

    static constexpr bool kSum = P::accumulation == Accumulation::Sum;

    /** Initial accumulator: the teleport mass for a Sum program, the
     *  GAS initial value for a Min one. */
    static Value
    initialDelta(const P &p, VertexId v, const BlockPartition &g)
    {
        if constexpr (kSum)
            return p.teleport(v, g);
        else
            return p.init(v, g);
    }

    /** Edge value v ships when it moved to `next` by absorbing
     *  `applied`: that of what it absorbed for a Sum program
     *  (linearity), of its new value for a Min one.  Computed once per
     *  applied vertex, not once per out-edge. */
    static Value
    shipped(const P &p, VertexId v, Value next, Value applied,
            const BlockPartition &g)
    {
        return p.edgeValue(v, kSum ? applied : next, g);
    }

    /** Delta carried by an out-edge of weight w: the GAS edge term of
     *  the shipped value, damped by alpha for a Sum program. */
    static Value
    propagate(const P &p, Value shipped, float w)
    {
        const Value term = p.edgeTerm(Value{}, shipped, w);
        if constexpr (kSum)
            return p.alpha * term;
        else
            return term;
    }

    /** Part of an extracted delta still worth keeping when applying it
     *  moved the value by <= tolerance: all of it for a Sum program
     *  (the mass-conservation fix), a candidate that still improves
     *  the value for a Min one. */
    static Value
    foldResidual(const P &p, Value d, Value old)
    {
        if constexpr (kSum)
            return d;
        else
            return d < old ? d : p.identity();
    }
};

} // namespace detail

/**
 * The accumulative data plane: per vertex a value and one pending
 * accumulator, the accumulators guarded by one mutex per block.
 * Exposed separately from the engine so tests can drive adversarial
 * block orders directly (the analogue of DeltaState's split
 * gather/commit API) and audit conservation.
 *
 * Values are atomics only so the activation filter may read a vertex
 * of a block in flight: a value is stored by the one participant that
 * holds its block, with a relaxed store, never read-modify-written.
 */
template <Accumulable Program>
class AccumState
{
  public:
    using Value = typename Program::Value;

    static_assert(std::atomic<Value>::is_always_lock_free,
                  "AccumState needs a lock-free atomic Value");

    AccumState(const BlockPartition &g, const Program &p)
        : graph(g), values_(g.numVertices()), pending_(g.numVertices()),
          locks_(g.numBlocks())
    {
        for (VertexId v = 0; v < g.numVertices(); v++) {
            values_[v].store(p.identity(), std::memory_order_relaxed);
            pending_[v] = Form::initialDelta(p, v, g);
        }
    }

    Value
    value(VertexId v) const
    {
        return values_[v].load(std::memory_order_relaxed);
    }

    Value
    pendingAt(VertexId v) const
    {
        std::lock_guard<std::mutex> lock(locks_[graph.blockOf(v)].m);
        return pending_[v];
    }

    std::vector<Value>
    valuesSnapshot() const
    {
        std::vector<Value> out(values_.size());
        for (std::size_t v = 0; v < values_.size(); v++)
            out[v] = values_[v].load(std::memory_order_relaxed);
        return out;
    }

    std::vector<Value>
    pendingSnapshot() const
    {
        std::vector<Value> out(pending_.size());
        for (BlockId b = 0; b < graph.numBlocks(); b++) {
            std::lock_guard<std::mutex> lock(locks_[b].m);
            for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
                 v++)
                out[v] = pending_[v];
        }
        return out;
    }

    /**
     * One participant's buffer (DESIGN.md §10.1): a dense per-vertex
     * array of Values held at the identity, which carries the claimed
     * block's accumulators and pre-combines the deltas bound for other
     * blocks, plus those destinations listed per destination block.
     * Participants run concurrently, so each brings its own; BlockPump
     * recycles it across requeues, so the O(|V|) fill is paid once per
     * participant per run.
     */
    struct Scratch
    {
        ScatterScratch scatter;      //!< out-edge bytes read
        std::vector<Value> buffer;   //!< per vertex; identity if clean
        /** Per destination block: its vertices with a delta in the
         *  buffer, in first-fold order. */
        std::vector<std::vector<VertexId>> touched;
        std::vector<BlockId> blocks;   //!< blocks with touched vertices
    };

    /** What one processBlock call did. */
    struct Result
    {
        /** Applied vertices, their L1 move and out-edges; `scatters`
         *  counts combines into other blocks' accumulators. */
        BlockWork work;
        std::uint64_t folded = 0;   //!< sub-tolerance, left pending
    };

    /**
     * Extract-apply-scatter every vertex of block b, which the caller
     * holds exclusively (BlockPump's claim):
     *
     *  1. Under b's lock, move b's accumulators into the buffer and
     *     leave the identity behind.
     *  2. Walk b's vertices.  A vertex whose pending would move its
     *     value by <= tol keeps it in the buffer (the fold-back); one
     *     that moves stores its value and scatters: a delta into b
     *     combines into the buffer, where a later vertex of b reads it
     *     in this pass, and a delta into another block is pre-combined
     *     there too.  Sum and Min commute and associate (Maiter's
     *     condition), so pre-combining is exact.
     *  3. Under b's lock, combine the buffer back into b's accumulators,
     *     which may hold deltas flushed while b was in flight.
     *  4. For each destination block X, under X's lock, combine X's
     *     pre-combined deltas into its accumulators.
     *
     * Each combine into an accumulator (steps 3 and 4) runs Maiter's
     * activation filter on the exact total under the same lock, and
     * wakes the block once, through on_activate(block, est_move), if
     * any of its vertices passes.  Schedulers accumulate activation
     * priorities (Gauss-Southwell L1), so est_move sums the moves of
     * the deltas this call combined, not of the totals, which would
     * count earlier deltas again.  The last combine into a vertex's
     * accumulator always tests its final total against its current
     * value, so a run that quiesces leaves no vertex whose pending
     * would move it by more than tol.
     *
     * Flattened: this is the per-edge loop, and the serve runner's
     * translation unit instantiates every (program, engine) cell, so
     * GCC's unit-wide inlining budget otherwise runs out before the
     * scatter is inlined here.
     */
    template <typename OnActivate>
    [[gnu::flatten]] Result
    processBlock(const Program &p, BlockId b, double tol,
                 OnActivate &&on_activate, Scratch &scratch)
    {
        const Value identity = p.identity();
        if (scratch.buffer.size() != values_.size()) {
            scratch.buffer.assign(values_.size(), identity);
            // A block's list holds each of its vertices at most once
            // (twice only after a Sum cancels to the identity), so
            // sizing it now spares the growth reallocations.
            scratch.touched.assign(graph.numBlocks(), {});
            for (BlockId x = 0; x < graph.numBlocks(); x++)
                scratch.touched[x].reserve(graph.blockVertexCount(x));
        }
        Value *const buf = scratch.buffer.data();
        const VertexId lo = graph.blockBegin(b), hi = graph.blockEnd(b);
        {
            std::lock_guard<std::mutex> lock(locks_[b].m);
            for (VertexId v = lo; v < hi; v++)
                buf[v] = std::exchange(pending_[v], identity);
        }

        Result r;
        for (VertexId v = lo; v < hi; v++) {
            const Value d = buf[v];
            if (d == identity)
                continue;
            const Value cur = values_[v].load(std::memory_order_relaxed);
            const Value next = p.combine(cur, d);
            const double mag = p.delta(cur, next);
            if (!(mag > tol)) {
                buf[v] = Form::foldResidual(p, d, cur);
                r.folded++;
                continue;
            }
            values_[v].store(next, std::memory_order_relaxed);
            buf[v] = identity;   // before scatter: a self-loop refills it
            r.work.vertices++;
            r.work.l1 += mag;

            const Value shipped = Form::shipped(p, v, next, d, graph);
            const OutEdgesView out = graph.outEdges(v, scratch.scatter);
            r.work.edges += out.size();
            for (std::size_t i = 0; i < out.size(); i++) {
                const Value contrib =
                    Form::propagate(p, shipped, out.weight(i));
                if (contrib == identity)
                    continue;
                const VertexId dst = out.dst[i];
                const BlockId blk = out.blk[i];
                Value &slot = buf[dst];
                if (blk != b && slot == identity) {
                    std::vector<VertexId> &list = scratch.touched[blk];
                    if (list.empty())
                        scratch.blocks.push_back(blk);
                    list.push_back(dst);
                }
                slot = p.combine(slot, contrib);
            }
        }
        // Every applied vertex moved by more than the tolerance.
        r.work.active = r.work.vertices;

        bool wake = false;
        double est = 0.0;
        {
            std::lock_guard<std::mutex> lock(locks_[b].m);
            for (VertexId v = lo; v < hi; v++) {
                const Value mine = std::exchange(buf[v], identity);
                Value &acc = pending_[v];
                acc = p.combine(acc, mine);
                if (!(acc == identity))
                    wake = passesFilter(p, v, mine, tol, est) || wake;
            }
        }
        if (wake)
            on_activate(b, est);
        for (const BlockId x : scratch.blocks) {
            std::vector<VertexId> &list = scratch.touched[x];
            wake = false;
            est = 0.0;
            {
                std::lock_guard<std::mutex> lock(locks_[x].m);
                for (const VertexId v : list) {
                    const Value d = std::exchange(buf[v], identity);
                    // A vertex listed twice (a Sum that cancelled to the
                    // identity and was folded into again) is clean the
                    // second time.
                    if (d == identity)
                        continue;
                    pending_[v] = p.combine(pending_[v], d);
                    r.work.scatters++;
                    wake = passesFilter(p, v, d, tol, est) || wake;
                }
            }
            list.clear();
            if (wake)
                on_activate(x, est);
        }
        scratch.blocks.clear();
        graph.chargeScatterBytes(scratch.scatter);
        return r;
    }

  private:
    using Form = detail::DeltaForm<Program>;

    /**
     * Maiter's activation filter on v's whole pending, with v's block
     * lock held: whether absorbing it would move v's value by more than
     * tol.  If so, adds the move of `d`, the part just combined, to est.
     */
    bool
    passesFilter(const Program &p, VertexId v, Value d, double tol,
                 double &est) const
    {
        const Value val = values_[v].load(std::memory_order_relaxed);
        if (!(p.delta(val, p.combine(val, pending_[v])) > tol))
            return false;
        est += p.delta(val, p.combine(val, d));
        return true;
    }

    /** One block's mutex, alone on its cache line so participants
     *  locking neighbouring blocks do not share a line. */
    struct alignas(64) BlockLock
    {
        std::mutex m;
    };

    const BlockPartition &graph;
    std::vector<std::atomic<Value>> values_;
    std::vector<Value> pending_;   //!< guarded by the block's lock
    mutable std::vector<BlockLock> locks_;
};

/**
 * Threaded accumulative engine: the shared BlockPump (core/block_pump.hh)
 * claims blocks exclusively and drives AccumState::processBlock with a
 * dispatch window of one — deltas are commutative, so staleness
 * bounding is unnecessary and blocks are claimed straight from the
 * scheduler.
 *
 * vertexUpdates counts vertices whose value actually moved — that is
 * the "vertex updates to tolerance" the Maiter comparison is about.
 * Sub-tolerance vertices (residual left in the accumulator) are
 * deferrals, not updates; they are tallied in the
 * engine.accum.foldbacks counter instead.  warmStart is ignored:
 * resuming needs a consistent (values, pending) pair, which cached
 * final values alone cannot provide.
 */
template <Accumulable Program>
class AccumEngine
{
  public:
    using Value = typename Program::Value;

    AccumEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
        GRAPHABCD_ASSERT(options.mode == ExecMode::Async,
                         "AccumEngine runs only ExecMode::Async");
    }

    /**
     * Run to quiescence (or maxEpochs / stop).
     * @param out_values receives the final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        Timer timer;
        state_ = std::make_unique<AccumState<Program>>(graph, program);
        RunAccounting acct("engine.accum.run", graph.numVertices(),
                           options);
        const std::uint32_t participation =
            std::max(1u, options.numThreads);
        auto sched = makeSeededScheduler(options.schedule,
                                         graph.numBlocks(), options.seed);
        std::atomic<std::uint64_t> foldbacks{0};

        using Scratch = typename AccumState<Program>::Scratch;

        auto processBlock = [&](BlockId b, Scratch &scratch,
                                BlockActivations &activations) {
            const auto r = state_->processBlock(
                program, b, options.tolerance,
                [&activations](BlockId db, double mag) {
                    activations.add(db, mag);
                },
                scratch);
            if (r.folded)
                foldbacks.fetch_add(r.folded, std::memory_order_relaxed);
            return r.work;
        };

        const PumpConfig cfg{"engine.accum", participation, 1,
                             graph.numBlocks()};
        EngineReport report =
            BlockPump<Scratch, decltype(processBlock)>(
                cfg, *sched, acct, options, processBlock)
                .run();
        if constexpr (obs::kEnabled) {
            obs::counter("engine.accum.foldbacks").add(foldbacks.load());
            if (report.converged) {
                obs::counter("engine.accum.updates_to_tolerance")
                    .add(report.vertexUpdates);
            }
        }
        out_values = state_->valuesSnapshot();
        report.seconds = timer.seconds();
        return report;
    }

    /** Post-run accumulator snapshot (conservation audits). */
    std::vector<Value>
    pendingSnapshot() const
    {
        return state_ ? state_->pendingSnapshot()
                      : std::vector<Value>{};
    }

  private:
    const BlockPartition &graph;
    Program program;
    EngineOptions options;
    std::unique_ptr<AccumState<Program>> state_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ACCUM_ENGINE_HH
