/**
 * @file
 * GraphMat-style baseline: a Bulk-Synchronous generalized-SpMV engine
 * (Sundaram et al., VLDB 2015) — the framework the paper compares
 * against (Sec. V, Tables II/III).
 *
 * The paper places GraphMat in BCD's design space as block size |V|
 * with Jacobi commits, so the engine runs the same vertex programs as
 * the GraphABCD engines (core/vertex_program.hh) over the same
 * BlockPartition.  Every superstep pulls each vertex's in-edges:
 * edgeTerm(x[v], edgeValue(u, x[u]), w), folded with combine, then
 * apply — GraphMat's SEND_MESSAGE / PROCESS_MESSAGE / REDUCE / APPLY.
 * Commits are double-buffered with a global barrier per superstep;
 * vertices whose state changed are active in the next one.
 *
 * The active-vertex filtering is what the paper calls out for SSSP:
 * only active columns are processed, which "in fact reduces its block
 * size" and is why GraphMat's SSSP converges in fewer effective epochs
 * than block-granular GraphABCD.
 */

#ifndef GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH
#define GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {
namespace graphmat {

/** Work accounting of one GraphMat run. */
struct GraphMatReport
{
    std::uint32_t iterations = 0;       //!< BSP supersteps
    std::uint64_t edgesProcessed = 0;   //!< SpMV edge traversals
    std::uint64_t vertexUpdates = 0;    //!< active destinations applied
    std::uint64_t messagesSent = 0;
    bool filtered = false;              //!< ran with active-vertex filtering
    bool converged = false;
    double effectiveEpochs = 0.0;       //!< vertexUpdates / |V|
};

/**
 * The BSP engine.  Built once per (partition, program); run() restarts
 * from init() every call.  The partition must outlive the engine.
 */
template <VertexProgram Program>
class GraphMatEngine
{
  public:
    using Value = typename Program::Value;
    using Accum = typename Program::Accum;

    /** Per-superstep observer (iteration, values) for RMSE curves. */
    using IterFn =
        std::function<bool(std::uint32_t, const std::vector<Value> &)>;

    /**
     * Active-vertex filtering is only sound for monotone programs whose
     * apply folds the reduced accumulator into the old value by min
     * (SSSP/BFS/CC): a partial reduce then loses nothing.  PR and CF
     * recompute from *all* in-edges, so GraphMat runs them as full BSP
     * sweeps — exactly the "GraphMat deviates from its BSP model in
     * SSSP" distinction the paper draws (Sec. V-C).
     */
    static constexpr bool filtering = [] {
        if constexpr (Accumulable<Program>)
            return Program::accumulation == Accumulation::Min;
        return false;
    }();

    GraphMatEngine(const BlockPartition &g, Program p)
        : graph(g), program(std::move(p))
    {
    }

    /**
     * Attach a convergence curve sink: run() appends one sample per
     * superstep (residual = L1 state delta of the superstep), so the
     * baseline plots on the same axes as the BCD engines (paper
     * Figs. 9-11).  No-op stub under GRAPHABCD_OBS=OFF.
     */
    void
    setConvergenceSeries(std::shared_ptr<obs::ConvergenceSeries> series)
    {
        convergence = std::move(series);
    }

    /**
     * Run supersteps until no vertex is active or `max_iters`.
     * @param tol state changes <= tol do not reactivate.
     * @param iter_fn optional; return true to stop (objective-based
     *        convergence criterion).
     */
    GraphMatReport
    run(std::vector<Value> &out_values, double tol,
        std::uint32_t max_iters = 10000, const IterFn &iter_fn = nullptr)
    {
        const VertexId n = graph.numVertices();
        Timer timer;
        GraphMatReport report;
        report.filtered = filtering;
        std::vector<Value> x(n);
        for (VertexId v = 0; v < n; v++)
            x[v] = program.init(v, graph);
        std::vector<Value> next(x);

        std::vector<char> active(n, 1);
        std::vector<char> next_active(n, 0);

        std::uint64_t active_count = n;
        while (active_count > 0 && report.iterations < max_iters) {
            std::uint64_t moved = 0;
            double step_l1 = 0.0;
            for (VertexId v = 0; v < n; v++) {
                Accum acc = program.identity();
                bool got = false;
                graph.forEachInEdge(v, [&](EdgeId, VertexId u, float w) {
                    if (filtering && !active[u])
                        return;
                    acc = program.combine(
                        acc, program.edgeTerm(
                                 x[v], program.edgeValue(u, x[u], graph),
                                 w));
                    got = true;
                    report.edgesProcessed++;
                });
                if (filtering && !got) {
                    next[v] = x[v];
                    continue;
                }
                next[v] = program.apply(v, acc, x[v], graph);
                report.vertexUpdates++;
                const double d = program.delta(next[v], x[v]);
                if constexpr (obs::kEnabled)
                    step_l1 += d;
                if (d > tol) {
                    next_active[v] = 1;
                    moved++;
                }
            }
            // Message volume = out-edges of the vertices that sent this
            // superstep (what the SpMV streams; drives the cost model).
            for (VertexId v = 0; v < n; v++) {
                if (!filtering || active[v])
                    report.messagesSent += graph.outDegree(v);
            }

            // Global barrier: commit the double buffer.
            x.swap(next);
            active.swap(next_active);
            std::fill(next_active.begin(), next_active.end(), 0);
            active_count = filtering
                ? std::count(active.begin(), active.end(), char(1))
                : moved;
            report.iterations++;
            if constexpr (obs::kEnabled) {
                if (convergence) {
                    obs::ConvergencePoint pt;
                    pt.epochs = static_cast<double>(report.vertexUpdates) /
                                std::max<double>(n, 1.0);
                    pt.residual = step_l1;
                    pt.activeVertices = moved;
                    pt.vertexUpdates = report.vertexUpdates;
                    pt.edgeTraversals = report.edgesProcessed;
                    pt.wallSeconds = timer.seconds();
                    // The BSP superstep IS the sample window: record
                    // the last one as final so the curve always ends
                    // on the terminating superstep.
                    if (active_count == 0 ||
                        report.iterations >= max_iters)
                        convergence->recordFinal(pt);
                    else
                        convergence->record(pt);
                }
            }
            if (iter_fn && iter_fn(report.iterations, x)) {
                report.converged = true;
                break;
            }
        }
        if (active_count == 0)
            report.converged = true;
        report.effectiveEpochs = static_cast<double>(report.vertexUpdates) /
                                 std::max<double>(n, 1.0);
        out_values = std::move(x);
        return report;
    }

  private:
    const BlockPartition &graph;
    Program program;
    std::shared_ptr<obs::ConvergenceSeries> convergence;
};

} // namespace graphmat
} // namespace graphabcd

#endif // GRAPHABCD_BASELINES_GRAPHMAT_ENGINE_HH
