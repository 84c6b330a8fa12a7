/**
 * @file
 * Serial BCD engine — the algorithmic reference for every execution mode.
 *
 * One engine covers the paper's whole design spectrum (Sec. III-B/C):
 *
 *  - block size n with Async/Barrier mode => block Gauss-Seidel: each
 *    block's SCATTER commits before the next block is picked (serially,
 *    Async and Barrier are identical — they differ only in *timing*,
 *    which the HARP simulator models);
 *  - mode Bsp => Jacobi: every active block is processed against a
 *    snapshot of the edge values and all commits land at the end of the
 *    superstep, which is exactly block size |V| in convergence terms;
 *  - schedule Cyclic / Priority / Random picks the block selection rule.
 *
 * This engine produces the convergence-rate results (Fig. 4, Table III,
 * Fig. 5); the timing results come from the HARP simulator and the
 * threaded engine, both of which reuse the same state transitions.
 */

#ifndef GRAPHABCD_CORE_ENGINE_HH
#define GRAPHABCD_CORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/options.hh"
#include "core/run_accounting.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"

namespace graphabcd {

/**
 * Single-threaded BCD engine over a partitioned graph.
 */
template <VertexProgram Program>
class SerialEngine
{
  public:
    using Value = typename Program::Value;

    /**
     * Observer called at every trace interval; receives the epoch count
     * and the current vertex values (e.g. to evaluate RMSE for Fig. 5).
     */
    using TraceFn =
        std::function<void(double epochs, const std::vector<Value> &)>;

    /**
     * Optional stopping rule, checked at every trace interval: return
     * true to end the run (converged).  This is how the paper's
     * objective-discrepancy convergence criterion (Sec. II-B) is
     * expressed — e.g. stop once the Eq. (3) residual or the CF RMSE
     * falls below a threshold.  Quiescence of the active list remains
     * the default criterion when no StopFn is given.
     */
    using StopFn =
        std::function<bool(double epochs, const std::vector<Value> &)>;

    /**
     * @param g partition whose block size should equal opt.blockSize
     *        (the engine trusts the partition).
     * @param p the vertex program (copied).
     * @param opt run options.
     */
    SerialEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
    }

    /**
     * Run to quiescence (or maxEpochs) mutating `state`.
     * @param trace_fn optional observer, invoked every
     *        options.traceInterval epochs when that is > 0.
     */
    EngineReport
    run(BcdState<Program> &state, const TraceFn &trace_fn = nullptr,
        const StopFn &stop_fn = nullptr)
    {
        if ((stop_fn || options.convergence) &&
            options.traceInterval <= 0.0)
            options.traceInterval = 1.0;
        return runSteps(state, trace_fn, stop_fn);
    }

    /** Convenience: fresh state, run, return (report, values). */
    EngineReport
    run(std::vector<Value> &out_values, const TraceFn &trace_fn = nullptr,
        const StopFn &stop_fn = nullptr)
    {
        BcdState<Program> state(graph, program);
        if constexpr (std::is_same_v<Value, double>) {
            if (options.warmStart &&
                options.warmStart->size() == graph.numVertices())
                state.setValues(graph, program, *options.warmStart);
        }
        EngineReport report = run(state, trace_fn, stop_fn);
        out_values = state.values();
        return report;
    }

  private:
    /** SCATTER one update, activating its destination blocks; count it. */
    BlockWork
    commit(BcdState<Program> &state, BlockScheduler &sched,
           RunAccounting &acct, const BlockUpdate<Value> &update)
    {
        const ScatterCounts counts = state.commitBlock(
            graph, program, update, options.tolerance, &sched);
        const BlockWork work{update.newValues.size(), 1,
                             graph.blockEdgeCount(update.block),
                             counts.scatters, counts.activationEntries,
                             update.changed, update.l1Delta};
        acct.count(work);
        return work;
    }

    /**
     * The run loop.  A step is one block under Gauss-Seidel (its
     * SCATTER commits before the next block is picked) or one Jacobi
     * superstep (mode Bsp: the whole active set is GATHER-APPLIED
     * against a frozen snapshot, then committed behind a global
     * barrier).  The trace observer and StopFn run at trace-interval
     * boundaries between steps.
     */
    EngineReport
    runSteps(BcdState<Program> &state, const TraceFn &trace_fn,
             const StopFn &stop_fn)
    {
        RunAccounting acct("engine.serial.run", graph.numVertices(),
                           options);
        auto sched = makeSeededScheduler(options.schedule,
                                         graph.numBlocks(), options.seed);

        // Resolve metrics once per run; recording is per block.
        obs::Histogram &gasHist = obs::histogram(
            "engine.serial.block_gas_us", obs::latencyBucketsUs());
        obs::Histogram &fanoutHist = obs::histogram(
            "engine.serial.scatter_fanout", obs::fanoutBuckets());

        double next_trace = options.traceInterval;
        bool stopped = false;
        bool objective_met = false;
        std::vector<BlockUpdate<Value>> wave;
        while (!sched->empty()) {
            BlockWork step;   // the step's convergence-window share
            if (options.mode == ExecMode::Bsp) {
                wave.clear();
                while (auto b = sched->next()) {
                    wave.push_back(state.processBlock(
                        graph, program, *b, options.tolerance));
                }
                for (const auto &update : wave) {
                    const BlockWork work = commit(state, *sched, acct, update);
                    step.l1 += work.l1;
                    step.active += work.active;
                }
            } else {
                const std::optional<BlockId> b = sched->next();
                if (!b)
                    break;
                {
                    obs::ScopedLatency lat(gasHist);
                    step = commit(state, *sched, acct,
                                  state.processBlock(graph, program, *b,
                                                     options.tolerance));
                }
                fanoutHist.record(static_cast<double>(step.scatters));
            }
            acct.observe(step);
            if (options.stop.stopRequested()) {
                stopped = true;
                break;
            }
            const double epochs = acct.epochs();
            if (options.traceInterval > 0.0 &&
                epochs + 1e-12 >= next_trace) {
                next_trace += options.traceInterval;
                if (trace_fn)
                    trace_fn(epochs, state.values());
                if (stop_fn && stop_fn(epochs, state.values())) {
                    objective_met = true;
                    break;
                }
            }
            if (epochs >= options.maxEpochs)
                break;
        }
        return acct.finish(*sched, stopped,
                           objective_met || sched->empty());
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ENGINE_HH
