/**
 * @file
 * Threaded asynchronous BCD engine — real barrierless execution on a
 * shared worker pool (the "software GraphABCD" of paper Sec. V-D, with
 * the GATHER-APPLY / SCATTER kernel fusion the paper applies to its
 * software baseline).
 *
 * The state is core/state.hh's ValueArrays over relaxed atomics: the
 * vertex values and one published edge copy per vertex, in place of the
 * paper's per-edge copies.  GATHER reads whatever copy SCATTER has most
 * recently published (possibly stale — that is asynchronous BCD), and
 * SCATTER publishes whole values (state-based update information, Sec.
 * IV-A3) in one store, so a reader sees a vertex's copy all-or-nothing
 * and no locks or barriers are needed on the data plane.  The run loop
 * is the shared BlockPump (core/block_pump.hh): one control lock per
 * block and a bounded dispatch FIFO (the software stand-in for the
 * paper's accelerator task queue) of 4 x participation blocks, which
 * bounds staleness (Sec. III-D).  This engine supplies only the fused
 * per-block kernel.
 *
 * It runs only the paper's barrierless model (ExecMode::Async).  The
 * Barrier and BSP baselines of the paper's Fig. 7 are execution models
 * on the HARP platform, so the simulator (harp/system.hh) runs them;
 * SerialEngine runs Jacobi supersteps for the convergence baselines.
 */

#ifndef GRAPHABCD_CORE_ASYNC_ENGINE_HH
#define GRAPHABCD_CORE_ASYNC_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "core/block_pump.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Multi-threaded BCD engine.  Requires a lock-free-atomic Value (the
 * scalar algorithms: PR, SSSP, BFS, CC).  Vector-valued programs (CF)
 * run through the serial engine or the HARP simulator instead.
 */
template <VertexProgram Program>
class AsyncEngine
{
  public:
    using Value = typename Program::Value;

    static_assert(std::atomic<Value>::is_always_lock_free,
                  "AsyncEngine needs a lock-free atomic Value; "
                  "use SerialEngine or HarpSystem for wide values");

    AsyncEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
        GRAPHABCD_ASSERT(options.mode == ExecMode::Async,
                         "AsyncEngine runs only ExecMode::Async");
    }

    /**
     * Run to quiescence (or maxEpochs).
     * @param out_values receives the final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        Timer timer;
        initState();
        EngineReport report = runPump();

        out_values.resize(graph.numVertices());
        for (VertexId v = 0; v < graph.numVertices(); v++)
            out_values[v] = loadSlot(state.values[v]);
        report.seconds = timer.seconds();
        return report;
    }

  private:
    void
    initState()
    {
        state.seed(graph, program, [&](VertexId v) -> Value {
            if constexpr (std::is_same_v<Value, double>) {
                if (options.warmStart &&
                    options.warmStart->size() == graph.numVertices())
                    return (*options.warmStart)[v];
            }
            return program.init(v, graph);
        });
    }

    /**
     * Fused GATHER-APPLY-SCATTER of one block directly against the
     * atomic arrays; the pump's kernel.  A vertex scattered earlier in
     * the block is read at its new copy (in-block Gauss-Seidel); the
     * block's destination blocks are activated once, after its last
     * vertex.  `scratch` is per-participant: pumps run concurrently, so
     * each owns its own decode buffers and scatter queue.
     */
    BlockWork
    processAndCommit(BlockId b, LayoutScratch &scratch,
                     BlockActivations &activations)
    {
        BlockWork work;
        work.vertices = graph.blockVertexCount(b);
        work.edges = graph.blockEdgeCount(b);
        const BlockEdgesView slice = graph.blockEdges(b, scratch.slice);
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            const Value old = loadSlot(state.values[v]);
            const Value next =
                state.gatherApply(graph, program, v, old, slice);
            const double d = program.delta(old, next);
            work.l1 += d;
            storeSlot(state.values[v], next);
            if (d > options.tolerance) {
                work.active++;
                work.scatters +=
                    state.publish(graph, program, v, next, scratch.scatter);
            }
        }
        work.activationEntries =
            activateDestinations(graph, b, scratch.scatter, activations);
        return work;
    }

    EngineReport
    runPump()
    {
        RunAccounting acct("engine.async.run", graph.numVertices(),
                           options);
        auto sched = makeSeededScheduler(options.schedule,
                                         graph.numBlocks(), options.seed);
        const std::uint32_t participation =
            std::max(1u, options.numThreads);
        const PumpConfig cfg{"engine.async", participation,
                             std::size_t{participation} * 4,
                             graph.numBlocks()};
        auto kernel = [this](BlockId b, LayoutScratch &scratch,
                             BlockActivations &activations) {
            return processAndCommit(b, scratch, activations);
        };
        return BlockPump<LayoutScratch, decltype(kernel)>(
                   cfg, *sched, acct, options, kernel)
            .run();
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;

    ValueArrays<Program, std::atomic<Value>> state;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ASYNC_ENGINE_HH
