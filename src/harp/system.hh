/**
 * @file
 * Execution-driven discrete-event simulator of the GraphABCD prototype
 * on the HARPv2 CPU-FPGA platform (paper Fig. 2 and Sec. IV-C).
 *
 * The simulated pipeline follows the paper's eleven execution steps:
 * the software Scheduler picks active blocks and pushes their ids into
 * the Accelerator Task Queue (bounded — which bounds staleness); an
 * idle PE dequeues a task, the customized DMA streams the block's
 * vertex values and in-edge slice over the shared CPU-FPGA link
 * (sequential reads by construction of the BlockPartition), the
 * GATHER-APPLY pipeline reduces it, the new vertex block is written
 * back and the block id flows through the CPU Task Queue to a SCATTER
 * thread, which copies the updated values onto the out-going edges
 * (random CPU-side writes), refreshes block priorities and the active
 * list, and lets the Scheduler dispatch further work.
 *
 * The simulation is *execution-driven*: GATHER reads whatever edge
 * values are committed at the simulated dispatch instant, and SCATTER
 * commits at the simulated completion instant, so asynchronous stale
 * reads — and their effect on convergence — are real, not modelled.
 * ExecMode::Barrier dispatches one PE-wide wave at a time and fences
 * after it commits (the paper's 'Barrier' baseline); ExecMode::Bsp runs
 * Jacobi supersteps with a global barrier (the 'BSP' baseline).  Hybrid
 * execution adds CPU-side GATHER-APPLY workers fed from the same task
 * queue.
 *
 * Accounting goes through RunAccounting, as in every BCD engine: each
 * committed task is one BlockWork, the convergence window is observed
 * once per commit (once per superstep under Bsp) and its samples carry
 * the simulated time next to the host wall clock.
 */

#ifndef GRAPHABCD_HARP_SYSTEM_HH
#define GRAPHABCD_HARP_SYSTEM_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/options.hh"
#include "core/run_accounting.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "harp/bus.hh"
#include "harp/config.hh"
#include "harp/event_queue.hh"
#include "harp/report.hh"
#include "obs/obs.hh"

namespace graphabcd {

/**
 * The whole-system simulator.  One instance per run.
 */
template <VertexProgram Program>
class HarpSystem
{
  public:
    using Value = typename Program::Value;
    using StopFn =
        std::function<bool(double epochs, const std::vector<Value> &)>;

    HarpSystem(const BlockPartition &g, Program p, EngineOptions eopt,
               HarpConfig hcfg)
        : graph(g), program(std::move(p)), engineOpt(eopt), cfg(hcfg),
          devices(cfg.deviceList())
    {
        for (const AcceleratorSpec &spec : devices) {
            buses.emplace_back(spec.busBandwidth);
            for (std::uint32_t i = 0; i < spec.numPes; i++) {
                peDevice.push_back(
                    static_cast<std::uint32_t>(buses.size() - 1));
            }
        }
    }

    /** @return total PE count across all accelerator devices. */
    std::uint32_t
    totalPes() const
    {
        return static_cast<std::uint32_t>(peDevice.size());
    }

    /**
     * Simulate until quiescence, StopFn convergence, or maxEpochs.
     * @param out_values receives the final vertex values.
     */
    SimReport
    run(std::vector<Value> &out_values, const StopFn &stop_fn = nullptr)
    {
        acct.emplace("engine.sim.run", graph.numVertices(), engineOpt);
        state = std::make_unique<BcdState<Program>>(graph, program);
        if constexpr (std::is_same_v<Value, double>) {
            if (engineOpt.warmStart &&
                engineOpt.warmStart->size() == graph.numVertices()) {
                state->setValues(graph, program, *engineOpt.warmStart);
            }
        }
        sched = makeSeededScheduler(engineOpt.schedule, graph.numBlocks(),
                                    engineOpt.seed);

        peFreeAt.assign(totalPes(), 0.0);
        peBusy.assign(totalPes(), 0.0);
        cpuFreeAt.assign(cfg.cpuThreads, 0.0);
        cpuBusy.assign(cfg.cpuThreads, 0.0);
        stopFn = stop_fn;
        nextTrace = engineOpt.traceInterval > 0.0
            ? engineOpt.traceInterval
            : 1.0;

        if (engineOpt.mode == ExecMode::Bsp)
            startWave();
        else
            events.schedule(0.0, [this] { trySchedule(); });

        events.runToCompletion();
        acct->window().simSeconds = events.now();
        report.engine = acct->finish(
            *sched, cancelled,
            !cancelled && (stopFnFired || sched->empty()));
        acct.reset();

        const double horizon = endTime;
        report.seconds = horizon;
        if (horizon > 0.0) {
            report.mtes =
                static_cast<double>(report.engine.edgeTraversals) /
                horizon / 1e6;
            report.peUtilization = peUtilization(horizon);
            double cpu_busy = 0.0;
            for (double b : cpuBusy)
                cpu_busy += b;
            report.cpuUtilization =
                cpu_busy /
                (static_cast<double>(cfg.cpuThreads) * horizon);
            double bus_util = 0.0;
            for (const Bus &bus : buses)
                bus_util += bus.utilization(horizon);
            report.busUtilization = bus_util / buses.size();
            if constexpr (obs::kEnabled) {
                obs::gauge("harp.pe_utilization")
                    .set(report.peUtilization);
                obs::gauge("harp.cpu_utilization")
                    .set(report.cpuUtilization);
                obs::gauge("harp.bus_utilization")
                    .set(report.busUtilization);
                obs::Histogram &peHist = obs::histogram(
                    "harp.pe_busy_fraction", obs::fractionBuckets());
                for (double b : peBusy)
                    peHist.record(b / horizon);
                obs::counter("harp.bus_read_bytes")
                    .add(report.busReadBytes);
                obs::counter("harp.bus_write_bytes")
                    .add(report.busWriteBytes);
            }
        }
        out_values = state->values();
        return report;
    }

  private:
    /** A block task travelling through the system. */
    struct Task
    {
        BlockId block = invalidBlock;
        BlockUpdate<Value> update;   //!< filled by GATHER-APPLY
        bool onCpu = false;          //!< hybrid: processed by a CPU worker
    };

    // ------------------------------------------------------ scheduler

    /**
     * Dispatch window: the queue bound is also relative to the block
     * count, so staleness stays a small fraction of the graph — the
     * bounded-delay condition asynchronous BCD needs (Sec. III-D).
     */
    std::size_t
    dispatchWindow() const
    {
        // Enough in-flight tasks to feed every execution unit plus a
        // queue's worth of lookahead...
        std::size_t want = cfg.accelQueueDepth + totalPes();
        if (cfg.hybrid)
            want += cfg.cpuThreads;
        // ...but never more than a quarter of the graph's blocks, so
        // staleness stays a bounded fraction and convergence tracks
        // Gauss-Seidel.
        const std::size_t rel =
            std::max<std::size_t>(2, graph.numBlocks() / 4);
        return std::min<std::size_t>(want, rel);
    }

    /** Paper step 2: fill the accelerator task queue with active blocks. */
    void
    trySchedule()
    {
        if (checkCancelled() || stopFnFired)
            return;
        std::size_t window = dispatchWindow();
        if (engineOpt.mode == ExecMode::Barrier) {
            // 'Barrier' baseline: a memory barrier after every group of
            // concurrently processed blocks — dispatch one PE-wide wave
            // and wait for all of it to commit before the next.
            if (inflight > 0)
                return;
            window = std::min<std::size_t>(window, totalPes());
        }
        bool pushed = false;
        // Bound the *total* number of in-flight tasks (queued, on a PE,
        // or awaiting SCATTER): that is the update-propagation delay
        // asynchronous BCD requires to be bounded.  Bounding only the
        // accelerator queue would let un-scattered blocks pile up
        // behind a slow CPU side and staleness grow without limit.
        while (inflight < window &&
               (engineOpt.mode != ExecMode::Barrier ||
                inflight < totalPes())) {
            if (acct->budgetSpent())
                break;
            auto b = sched->next();
            if (!b)
                break;
            inflight++;
            accelQueue.push_back(*b);
            pushed = true;
        }
        if (pushed) {
            const double t = events.now() + cfg.dispatchLatencySec;
            events.schedule(t, [this] { tryStartPe(); });
            if (cfg.hybrid)
                events.schedule(t, [this] { tryStartCpu(); });
        }
    }

    // ------------------------------------------------------ FPGA PEs

    /** Paper steps 3-6: an idle PE processes one queued block. */
    void
    tryStartPe()
    {
        const double now = events.now();
        while (!accelQueue.empty()) {
            std::int32_t pe = -1;
            for (std::uint32_t i = 0; i < totalPes(); i++) {
                if (peFreeAt[i] <= now + 1e-15) {
                    pe = static_cast<std::int32_t>(i);
                    break;
                }
            }
            if (pe < 0)
                return;
            // Each accelerator device owns its own CPU link.
            const std::uint32_t dev =
                peDevice[static_cast<std::uint32_t>(pe)];
            Bus &bus = buses[dev];
            const AcceleratorSpec &spec = devices[dev];
            BlockId b = accelQueue.front();
            accelQueue.pop_front();

            // Functional GATHER-APPLY at dispatch time: the PE sees the
            // edge values committed so far (asynchronous staleness).
            Task task;
            task.block = b;
            task.update = state->processBlock(graph, program, b,
                                              engineOpt.tolerance);

            // Timing: DMA in (edge slice + vertex block), compute,
            // write-back of the new vertex block.
            const auto vbytes =
                static_cast<std::uint32_t>(sizeof(Value));
            const std::uint64_t in_bytes = static_cast<std::uint64_t>(
                static_cast<double>(graph.blockEdgeCount(b)) *
                    cfg.edgeRecordBytes(vbytes)) +
                graph.blockVertexCount(b) * vbytes;
            const std::uint64_t out_bytes =
                graph.blockVertexCount(b) * vbytes;

            BusGrant rd = bus.transfer(now + cfg.dmaLatencySec, in_bytes);
            const double compute_done =
                std::max(rd.end,
                         now + cfg.dmaLatencySec +
                             spec.computeSeconds(graph.blockEdgeCount(b),
                                                 cfg.pePipelineDepth));
            BusGrant wr = bus.transfer(compute_done, out_bytes);

            report.busReadBytes += in_bytes;
            report.busWriteBytes += out_bytes;
            report.fpgaTasks++;
            // Utilization counts pipeline-active time only: a PE
            // stalled waiting for the bus is occupied but not utilized
            // (this is what collapses in the paper's Fig. 8 when the
            // link saturates past 8 PEs).
            peBusy[pe] += spec.computeSeconds(graph.blockEdgeCount(b),
                                              cfg.pePipelineDepth);
            peFreeAt[pe] = wr.end;
            // Simulated FPGA timeline: one span per task on the PE's
            // virtual track (simulated-time microseconds), so Perfetto
            // shows busy/idle gaps next to the CPU scatter spans.
            obs::completeOnTrack(static_cast<std::uint32_t>(pe),
                                 "harp.pe.task", now * 1e6,
                                 (wr.end - now) * 1e6);

            // Paper step 7: hand the finished block to the CPU queue.
            events.schedule(wr.end, [this, task = std::move(task)]() {
                cpuQueue.push_back(task);
                tryStartCpu();
            });
            events.schedule(wr.end, [this] { tryStartPe(); });
        }
    }

    // ------------------------------------------------------ CPU side

    /** Paper steps 8-11 (and hybrid GATHER-APPLY when enabled). */
    void
    tryStartCpu()
    {
        const double now = events.now();
        for (;;) {
            std::int32_t worker = -1;
            for (std::uint32_t i = 0; i < cfg.cpuThreads; i++) {
                if (cpuFreeAt[i] <= now + 1e-15) {
                    worker = static_cast<std::int32_t>(i);
                    break;
                }
            }
            if (worker < 0)
                return;

            if (!cpuQueue.empty()) {
                Task task = std::move(cpuQueue.front());
                cpuQueue.pop_front();
                startScatter(worker, std::move(task), now);
                continue;
            }
            // Hybrid execution: an otherwise-idle CPU thread takes a
            // GATHER-APPLY task when every PE is busy with a backlog.
            if (cfg.hybrid && !accelQueue.empty() && allPesBusy(now)) {
                BlockId b = accelQueue.front();
                accelQueue.pop_front();
                startCpuGather(worker, b, now);
                continue;
            }
            return;
        }
    }

    bool
    allPesBusy(double now) const
    {
        for (double t : peFreeAt) {
            if (t <= now + 1e-15)
                return false;
        }
        return true;
    }

    /** SCATTER one finished block on CPU worker `w`. */
    void
    startScatter(std::int32_t w, Task task, double now)
    {
        // Random out-edge writes of every changed vertex.
        const auto vbytes = static_cast<std::uint32_t>(sizeof(Value));
        std::uint64_t write_bytes = 0;
        const VertexId begin = graph.blockBegin(task.block);
        for (std::size_t i = 0; i < task.update.deltas.size(); i++) {
            if (task.update.deltas[i] > engineOpt.tolerance) {
                write_bytes +=
                    static_cast<std::uint64_t>(graph.outDegree(
                        begin + static_cast<VertexId>(i))) *
                    vbytes;
            }
        }
        const double service =
            cfg.scatterOverheadSec +
            static_cast<double>(write_bytes) * cfg.scatterRandomPenalty /
                cfg.cpuThreadBytesPerSec;
        const double done = now + service;
        cpuBusy[w] += service;
        cpuFreeAt[w] = done;
        report.cpuRandomBytes += write_bytes;
        obs::completeOnTrack(cpuTrack(w), "harp.cpu.scatter", now * 1e6,
                             service * 1e6);

        events.schedule(done, [this, task = std::move(task)]() {
            commitTask(task);
        });
        events.schedule(done, [this] { tryStartCpu(); });
    }

    /** Hybrid: GATHER-APPLY on a CPU worker, then queue its SCATTER. */
    void
    startCpuGather(std::int32_t w, BlockId b, double now)
    {
        Task task;
        task.block = b;
        task.onCpu = true;
        task.update =
            state->processBlock(graph, program, b, engineOpt.tolerance);

        const double service =
            static_cast<double>(graph.blockEdgeCount(b)) /
            cfg.cpuGatherEdgesPerSec;
        const double done = now + service;
        cpuBusy[w] += service;
        cpuFreeAt[w] = done;
        report.cpuGatherTasks++;
        obs::completeOnTrack(cpuTrack(w), "harp.cpu.gather", now * 1e6,
                             service * 1e6);

        events.schedule(done, [this, task = std::move(task)]() {
            cpuQueue.push_back(task);
            tryStartCpu();
        });
    }

    /** Functional commit at simulated SCATTER completion time. */
    void
    commitTask(const Task &task)
    {
        const double now = events.now();
        inflight--;
        endTime = std::max(endTime, now);
        if (engineOpt.mode == ExecMode::Bsp) {
            // Jacobi: park the update until the wave barrier.
            waveDone.push_back(task);
            if (inflight == 0)
                finishWave();
            return;
        }

        observe(commit(task));
        checkStop();
        if (engineOpt.mode == ExecMode::Barrier) {
            // The wave's memory barrier: dispatching resumes only after
            // the fence completes.
            if (inflight == 0) {
                const double fence_done = now + cfg.barrierSeconds;
                endTime = std::max(endTime, fence_done);
                events.schedule(fence_done, [this] { trySchedule(); });
            }
        } else {
            trySchedule();
        }
    }

    /** SCATTER one task's update into the state and count it. */
    BlockWork
    commit(const Task &task)
    {
        const ScatterCounts counts = state->commitBlock(
            graph, program, task.update, engineOpt.tolerance, sched.get());
        const BlockWork work{task.update.newValues.size(), 1,
                             graph.blockEdgeCount(task.block),
                             counts.scatters, counts.activationEntries,
                             task.update.changed, task.update.l1Delta};
        acct->count(work);
        return work;
    }

    // ------------------------------------------------------ BSP waves

    /** Dispatch one Jacobi superstep: every active block at once. */
    void
    startWave()
    {
        if (checkCancelled() || stopFnFired || acct->budgetSpent())
            return;
        bool any = false;
        while (auto b = sched->next()) {
            inflight++;
            accelQueue.push_back(*b);
            any = true;
        }
        if (!any)
            return;
        const double t = events.now() + cfg.dispatchLatencySec;
        events.schedule(t, [this] { tryStartPe(); });
        if (cfg.hybrid)
            events.schedule(t, [this] { tryStartCpu(); });
    }

    /** Global barrier: commit the whole wave, then start the next. */
    void
    finishWave()
    {
        const double barrier_done = events.now() + cfg.barrierSeconds;
        endTime = std::max(endTime, barrier_done);
        BlockWork step;   // the superstep's convergence-window share
        for (const Task &task : waveDone) {
            const BlockWork work = commit(task);
            step.l1 += work.l1;
            step.active += work.active;
        }
        waveDone.clear();
        observe(step);
        checkStop();
        if (!stopFnFired) {
            events.schedule(barrier_done, [this] { startWave(); });
        }
    }

    // -------------------------------------------------- observability

    /**
     * Fold one commit (or superstep) into the run's convergence window.
     * A recorded sample carries the simulated time, and refreshes the
     * harp.pe_utilization gauge so the periodic Sampler sees
     * utilization evolve instead of only the end-of-run scalar.
     */
    void
    observe(const BlockWork &step)
    {
        const double now = events.now();
        acct->window().simSeconds = now;
        if (acct->observe(step) && now > 0.0)
            obs::gauge("harp.pe_utilization").set(peUtilization(now));
    }

    /** Mean pipeline-active fraction of the PEs over [0, horizon]. */
    double
    peUtilization(double horizon) const
    {
        double busy = 0.0;
        for (double b : peBusy)
            busy += b;
        return busy / (static_cast<double>(totalPes()) * horizon);
    }

    /** Track layout of the simulated timeline: PEs first, CPU workers
     *  after.  Timestamps on these tracks are simulated microseconds. */
    std::uint32_t
    cpuTrack(std::int32_t worker) const
    {
        return totalPes() + static_cast<std::uint32_t>(worker);
    }

    // ---------------------------------------------------- termination

    /**
     * Poll the serve-layer stop token (cancellation / deadline).  Once
     * it fires no further work is dispatched; in-flight events drain
     * and the event loop winds down.
     */
    bool
    checkCancelled()
    {
        if (!cancelled && engineOpt.stop.stopRequested())
            cancelled = true;
        return cancelled;
    }

    void
    checkStop()
    {
        if (!stopFn)
            return;
        const double epochs = acct->epochs();
        if (epochs + 1e-12 < nextTrace)
            return;
        nextTrace += engineOpt.traceInterval > 0.0
            ? engineOpt.traceInterval
            : 1.0;
        if (stopFn(epochs, state->values()))
            stopFnFired = true;
    }

    // --------------------------------------------------------- members

    const BlockPartition &graph;
    Program program;
    EngineOptions engineOpt;
    HarpConfig cfg;
    std::vector<AcceleratorSpec> devices;
    std::vector<std::uint32_t> peDevice;   //!< PE index -> device index

    std::unique_ptr<BcdState<Program>> state;
    std::unique_ptr<BlockScheduler> sched;
    EventQueue events;
    std::vector<Bus> buses;   //!< one CPU link per accelerator

    std::vector<double> peFreeAt;
    std::vector<double> peBusy;
    std::vector<double> cpuFreeAt;
    std::vector<double> cpuBusy;

    std::deque<BlockId> accelQueue;
    std::deque<Task> cpuQueue;
    std::vector<Task> waveDone;

    std::uint64_t inflight = 0;
    double endTime = 0.0;
    std::optional<RunAccounting> acct;   //!< live during run()
    bool stopFnFired = false;  //!< StopFn convergence fired
    bool cancelled = false;    //!< EngineOptions::stop fired
    double nextTrace = 1.0;
    StopFn stopFn;

    SimReport report;
};

} // namespace graphabcd

#endif // GRAPHABCD_HARP_SYSTEM_HH
