/**
 * @file
 * Accumulative (delta) BCD engine — Maiter-style delta propagation made
 * safe under barrierless execution (ROADMAP item 1).
 *
 * The paper rejects operation-based updates because the per-edge
 * pending arrays of PageRank-Delta put a read-modify-write window
 * between GATHER's consume and SCATTER's accumulate (Sec. IV-A3; the
 * anomaly is reproduced by src/core/delta_state.hh).  Maiter's insight
 * is that the window is an artifact of the *layout*, not of delta
 * propagation itself: give every vertex ONE atomic pending accumulator,
 * make SCATTER a single atomic accumulate (fetch-add for PageRank, CAS
 * min for path problems) and GATHER a single exchange-to-zero, and
 * every delta is either in the accumulator or in exactly one
 * extractor's hands — nothing can be overwritten or double-counted, no
 * locks, no barriers.  Commutative + associative accumulation is the
 * whole correctness argument.
 *
 * It also licenses pre-combining: a participant folds the deltas its
 * block ships to other blocks into a private per-vertex combiner and
 * pays one atomic combine per distinct destination when the block ends,
 * not one per edge.  Deltas into the block being processed are combined
 * directly, so later vertices of the block read them in the same pass.
 *
 * Conservation: a delta whose application would move the value by less
 * than the tolerance is not dropped (the bug this engine exists to
 * kill) but folded back into the vertex's accumulator, so value mass is
 * conserved *by construction*: for PageRank,
 * sum(values) + sum(pending)/(1-alpha) == 1 holds whenever no combiner
 * holds a delta (after every flushed block), and
 * the fixpoint drops rank mass only through the per-vertex tolerance,
 * never through lost residuals.
 *
 * Scheduling: deltas make the Gauss-Southwell rule natural — a block's
 * priority tracks the estimated value moves of the deltas accumulated
 * into it since its last processing, maintained by the scatter hook.
 * The hook applies Maiter's activation filter: a destination is woken
 * only when its whole accumulated pending would move its value by more
 * than the tolerance, so sub-tolerance traffic parks in the
 * accumulator (conserved) instead of churning the worklist.
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

/** What processVertex did with a vertex's accumulator. */
enum class AccumOutcome
{
    Idle,     //!< accumulator held the identity: no work
    Folded,   //!< sub-tolerance move: residual folded back, no scatter
    Applied,  //!< value moved; deltas scattered downstream
};

/**
 * The accumulative data plane: one atomic value + one atomic pending
 * accumulator per vertex.  Exposed separately from the engine so tests
 * can drive adversarial interleavings directly (the analogue of
 * DeltaState's split gather/commit API) and audit conservation.
 */
template <Accumulable Program>
class AccumState
{
  public:
    using Value = typename Program::Value;

    static_assert(std::atomic<Value>::is_always_lock_free,
                  "AccumState needs a lock-free atomic Value");

    AccumState(const BlockPartition &g, const Program &p) : graph(g)
    {
        const VertexId n = g.numVertices();
        values_ = std::vector<std::atomic<Value>>(n);
        pending_ = std::vector<std::atomic<Value>>(n);
        for (VertexId v = 0; v < n; v++) {
            values_[v].store(p.identity(), std::memory_order_relaxed);
            pending_[v].store(Form::initialDelta(p, v, g),
                              std::memory_order_relaxed);
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
        return pending_[v].load(std::memory_order_relaxed);
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
        for (std::size_t v = 0; v < pending_.size(); v++)
            out[v] = pending_[v].load(std::memory_order_relaxed);
        return out;
    }

    /**
     * One participant's scatter scratch: the out-edge bytes tally and
     * the block-local delta combiner (DESIGN.md §10.1).  The
     * combiner is a dense per-vertex buffer held at the identity plus
     * the destinations folded into it since the last flush().
     * Participants run concurrently, so each brings its own; BlockPump
     * recycles it across requeues, so the O(|V|) fill is paid once per
     * participant per run.
     */
    struct Scratch
    {
        /** A destination folded into the combiner, with its block
         *  (the out-edge sidecar, so flush() reads no index). */
        struct Touched
        {
            VertexId v;
            BlockId blk;
        };

        ScatterScratch scatter;        //!< out-edge bytes read
        std::vector<Value> combined;   //!< per vertex; identity if clean
        std::vector<Touched> touched;  //!< first-fold order
    };

    /** Result of one processVertex call. */
    struct Result
    {
        AccumOutcome outcome = AccumOutcome::Idle;
        double magnitude = 0.0;       //!< value move (Applied) or the
                                      //!< sub-tolerance move (Folded)
        std::uint32_t scatters = 0;   //!< shared-accumulator combines
    };

    /**
     * Extract-apply-scatter one vertex.
     *
     * The extraction (exchange to identity) and every shared combine
     * are single atomic RMWs, so any interleaving with concurrent
     * processors — including of the same vertex — loses nothing: a
     * delta is in exactly one accumulator, one combiner or one
     * extractor's hands at all times.  The value update is a CAS loop
     * for the same reason.  A move <= tol folds the still-useful part
     * of the delta back into the accumulator (conservation) without
     * activating downstream blocks (quiescence).
     *
     * Scatter: a delta to a destination in v's own block is combined
     * straight into the destination's accumulator, so a later vertex
     * of the block being processed reads it in this pass (in-block
     * Gauss-Seidel).  A delta bound for another block is folded into
     * the scratch's combiner with a plain combine; flush() ships it.
     * Sum and Min commute and associate (Maiter's condition), so
     * pre-combining is exact.
     *
     * @param on_activate (dst_block, est_move), called per shared
     *        combine that passes the Maiter activation filter; see
     *        shareDelta().
     * @param scratch the participant's scratch.  Its combiner holds
     *        deltas until flush(), which the caller must run before
     *        committing its activation batch.
     *
     * Flattened: this is the per-edge loop, and the serve runner's
     * translation unit instantiates every (program, engine) cell, so
     * GCC's unit-wide inlining budget otherwise runs out before the
     * activation push is inlined here (measured ~12% slower PageRank).
     */
    template <typename OnActivate>
    [[gnu::flatten]] Result
    processVertex(const Program &p, VertexId v, double tol,
                  OnActivate &&on_activate, Scratch &scratch)
    {
        Result r;
        const Value identity = p.identity();
        const Value d =
            pending_[v].exchange(identity, std::memory_order_acq_rel);
        if (d == identity)
            return r;
        Value cur = values_[v].load(std::memory_order_relaxed);
        Value next = cur;
        for (;;) {
            next = p.combine(cur, d);
            const double mag = p.delta(cur, next);
            if (!(mag > tol)) {
                const Value residual = Form::foldResidual(p, d, cur);
                if (!(residual == identity))
                    atomicCombine(p, pending_[v], residual);
                r.outcome = AccumOutcome::Folded;
                r.magnitude = mag;
                return r;
            }
            if (values_[v].compare_exchange_weak(
                    cur, next, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                r.outcome = AccumOutcome::Applied;
                r.magnitude = mag;
                break;
            }
            // CAS lost to a concurrent applier of this vertex: re-apply
            // d against the fresh value (monotonicity makes any order
            // reach the same fixpoint).
        }

        if (scratch.combined.size() != values_.size())
            scratch.combined.assign(values_.size(), identity);
        const BlockId home = graph.blockOf(v);
        const Value shipped = Form::shipped(p, v, next, d, graph);
        const OutEdgesView out = graph.outEdges(v, scratch.scatter);
        for (std::size_t i = 0; i < out.size(); i++) {
            const Value contrib =
                Form::propagate(p, shipped, out.weight(i));
            if (contrib == identity)
                continue;
            const BlockId blk = out.blk[i];
            const VertexId dst = out.dst[i];
            if (blk == home) {
                shareDelta(p, dst, blk, contrib, tol, on_activate);
                r.scatters++;
                continue;
            }
            Value &slot = scratch.combined[dst];
            if (slot == identity)
                scratch.touched.push_back({dst, blk});
            slot = p.combine(slot, contrib);
        }
        return r;
    }

    /**
     * Ship the combiner: one shared combine, one value read and one
     * activation-filter test per distinct destination, then reset the
     * touched slots.  A delta in the combiner is in one extractor's
     * hands; flushing before the activation batch's locked commit
     * keeps the pump's quiescence detection exact.  Flattened like
     * processVertex: it is the per-destination loop.
     * @return shared-accumulator combines done.
     */
    template <typename OnActivate>
    [[gnu::flatten]] std::uint32_t
    flush(const Program &p, double tol, OnActivate &&on_activate,
          Scratch &scratch)
    {
        const Value identity = p.identity();
        std::uint32_t combines = 0;
        for (const typename Scratch::Touched &t : scratch.touched) {
            const Value d = std::exchange(scratch.combined[t.v], identity);
            // A slot listed twice (a Sum that cancelled to the identity
            // and was folded into again) is clean the second time.
            if (d == identity)
                continue;
            shareDelta(p, t.v, t.blk, d, tol, on_activate);
            combines++;
        }
        scratch.touched.clear();
        return combines;
    }

    /** processVertex with a throwaway scratch, flushed at once (direct
     *  test callers). */
    template <typename OnActivate>
    Result
    processVertex(const Program &p, VertexId v, double tol,
                  OnActivate &&on_activate)
    {
        Scratch scratch;
        Result r = processVertex(p, v, tol, on_activate, scratch);
        r.scatters += flush(p, tol, on_activate, scratch);
        graph.chargeScatterBytes(scratch.scatter);
        return r;
    }

  private:
    using Form = detail::DeltaForm<Program>;

    /**
     * Combine d into dst's shared accumulator, then apply Maiter's
     * activation filter: wake dst's block only when dst's whole
     * accumulated pending would move its value by more than tol.
     * Sub-tolerance totals stay parked in the accumulator — for
     * additive programs the last combiner of a super-tolerance total
     * always observes it, and for monotone min-programs a skipped wake
     * can never become necessary later (the estimated move only
     * shrinks), so no wakeup is lost.
     */
    template <typename OnActivate>
    void
    shareDelta(const Program &p, VertexId dst, BlockId blk, Value d,
               double tol, OnActivate &on_activate)
    {
        const Value after = atomicCombine(p, pending_[dst], d);
        const Value dval = values_[dst].load(std::memory_order_relaxed);
        if (p.delta(dval, p.combine(dval, after)) > tol) {
            // Schedulers ACCUMULATE activation priorities
            // (Gauss-Southwell L1), so pass this delta's own move — the
            // running sum then tracks dst's total pending.  Passing the
            // total would double-count earlier deltas and
            // over-prioritize hot vertices into premature, fragmenting
            // applies.
            on_activate(blk, p.delta(dval, p.combine(dval, d)));
        }
    }

    /** @return the post-combine accumulator value. */
    static Value
    atomicCombine(const Program &p, std::atomic<Value> &slot, Value d)
    {
        Value cur = slot.load(std::memory_order_relaxed);
        for (;;) {
            const Value next = p.combine(cur, d);
            if (next == cur)
                return cur;   // absorbing element (e.g. a worse min)
            if (slot.compare_exchange_weak(cur, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
                return next;
        }
    }

    const BlockPartition &graph;
    std::vector<std::atomic<Value>> values_;
    std::vector<std::atomic<Value>> pending_;
};

/**
 * Threaded accumulative engine: the shared BlockPump (core/block_pump.hh)
 * drives processBlock with a dispatch window of one — deltas are
 * commutative, so staleness bounding is unnecessary and blocks are
 * claimed straight from the scheduler.
 *
 * vertexUpdates counts vertices whose value actually moved (Applied) —
 * that is the "vertex updates to tolerance" the Maiter comparison is
 * about.  Folded claims (sub-tolerance residual returned to the
 * accumulator) are deferrals, not updates; they are tallied in the
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
        obs::Histogram &residualHist = obs::histogram(
            "engine.accum.residual_mag", obs::magnitudeBuckets());

        using Scratch = typename AccumState<Program>::Scratch;

        // Extract-apply-scatter each vertex of one block, then flush
        // the combiner ahead of the pump's locked commit.
        auto processBlock = [&](BlockId b, Scratch &scratch,
                                BlockActivations &activations) {
            BlockWork work;
            std::uint64_t folded = 0;
            auto on_activate = [&activations](BlockId db, double mag) {
                activations.add(db, mag);
            };
            for (VertexId v = graph.blockBegin(b);
                 v < graph.blockEnd(b); v++) {
                auto r = state_->processVertex(
                    program, v, options.tolerance, on_activate, scratch);
                switch (r.outcome) {
                  case AccumOutcome::Idle:
                    break;
                  case AccumOutcome::Folded:
                    folded++;
                    residualHist.record(r.magnitude);
                    break;
                  case AccumOutcome::Applied:
                    work.vertices++;
                    work.l1 += r.magnitude;
                    work.edges += graph.outDegree(v);
                    work.scatters += r.scatters;
                    break;
                }
            }
            work.scatters += state_->flush(program, options.tolerance,
                                           on_activate, scratch);
            // Every applied vertex moved by more than the tolerance.
            work.active = work.vertices;
            foldbacks.fetch_add(folded, std::memory_order_relaxed);
            graph.chargeScatterBytes(scratch.scatter);
            return work;
        };

        const PumpConfig cfg{"engine.accum", participation, 1,
                             graph.numBlocks(), /*exclusive=*/false};
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
