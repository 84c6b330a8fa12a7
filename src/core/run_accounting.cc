#include "core/run_accounting.hh"

#include <algorithm>
#include <limits>

#include "core/scheduler.hh"

namespace graphabcd {

namespace {

/**
 * Update budget in vertex updates.  maxEpochs * |V| is computed in
 * double and can exceed the uint64 range, where the bare cast is UB;
 * clamp to UINT64_MAX (and to 0 for non-positive budgets).
 */
std::uint64_t
updateBudget(double max_epochs, double n)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    const double budget = max_epochs * n;
    if (!(budget > 0.0))
        return 0;
    if (budget >= static_cast<double>(kMax))
        return kMax;
    return static_cast<std::uint64_t>(budget);
}

} // namespace

RunAccounting::RunAccounting(const char *span_name, VertexId num_vertices,
                             const EngineOptions &opt)
    : span_(span_name),
      n_(std::max<double>(num_vertices, 1.0)),
      maxUpdates_(updateBudget(opt.maxEpochs, n_)),
      interval_(opt.traceInterval > 0.0 ? opt.traceInterval : 1.0),
      progress_(opt.progress),
      window_{opt.convergence, 0.0, 0, interval_}
{
}

void
RunAccounting::sample(ConvergenceWindow &win, bool final) const
{
    if constexpr (obs::kEnabled) {
        if (win.series) {
            obs::ConvergencePoint p;
            p.epochs = epochs();
            p.residual = win.l1;
            p.activeVertices = win.active;
            p.vertexUpdates = vertexUpdates();
            p.edgeTraversals =
                edgeTraversals_.load(std::memory_order_relaxed);
            p.wallSeconds = timer_.seconds();
            p.simSeconds = win.simSeconds;
            if (final)
                win.series->recordFinal(p);
            else
                win.series->record(p);
        }
        win.l1 = 0.0;
        win.active = 0;
    }
}

EngineReport
RunAccounting::finish(const BlockScheduler &sched, bool stopped,
                      bool converged)
{
    EngineReport r;
    r.vertexUpdates = vertexUpdates();
    r.blockUpdates = blockUpdates();
    r.edgeTraversals = edgeTraversals_.load(std::memory_order_relaxed);
    r.scatterWrites = scatterWrites_.load(std::memory_order_relaxed);
    r.activationEntries =
        activationEntries_.load(std::memory_order_relaxed);
    r.epochs = epochs();
    r.stopped = stopped;
    r.converged = converged;
    if constexpr (obs::kEnabled) {
        r.residual = window_.l1;
        sample(window_, true);
        const SchedulerCounters c = sched.counters();
        obs::counter("scheduler.activations").add(c.activations);
        obs::counter("scheduler.heap_pushes").add(c.heapPushes);
        obs::counter("scheduler.refreshes").add(c.refreshes);
        obs::counter("scatter.activation_entries")
            .add(r.activationEntries);
    }
    r.seconds = timer_.seconds();
    return r;
}

} // namespace graphabcd
