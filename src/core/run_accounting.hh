/**
 * @file
 * RunAccounting — the bookkeeping every real engine run shares.
 *
 * One object per run owns the root span, the wall clock, the maxEpochs
 * update budget, the work counters (relaxed atomics, so threaded
 * participants tally without the control lock), live Progress
 * publishing, the convergence sample windows and the final
 * EngineReport.  Engines only say what one block (or superstep) did, as
 * a BlockWork.
 *
 * Used by every BCD engine: SerialEngine, AsyncEngine and AccumEngine
 * (through the BlockPump) and the HARP simulator, which also stamps
 * each convergence sample with its simulated time.  The GraphMat
 * baseline keeps its own accounting: it counts whole supersteps.
 */

#ifndef GRAPHABCD_CORE_RUN_ACCOUNTING_HH
#define GRAPHABCD_CORE_RUN_ACCOUNTING_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/options.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

class BlockScheduler;

/** Outcome and work accounting of an engine run. */
struct EngineReport
{
    double epochs = 0.0;          //!< vertexUpdates / |V|
    std::uint64_t blockUpdates = 0;
    std::uint64_t vertexUpdates = 0;
    std::uint64_t edgeTraversals = 0;
    std::uint64_t scatterWrites = 0;
    std::uint64_t activationEntries = 0;   //!< see BlockWork
    bool converged = false;       //!< quiescent before maxEpochs
    bool stopped = false;         //!< ended early by EngineOptions::stop
    double seconds = 0.0;         //!< host wall-clock (monotonic) of the run
    /**
     * L1 value delta accumulated over the last convergence sample
     * window (roughly one epoch).  0 at quiescence, and always 0 under
     * GRAPHABCD_OBS=OFF — residual accounting rides the observability
     * hooks so the uninstrumented hot loop stays byte-comparable.
     */
    double residual = 0.0;
};

/** What one block update (or one superstep) did. */
struct BlockWork
{
    std::uint64_t vertices = 0;   //!< vertex updates (epochs, budget)
    std::uint64_t blocks = 1;     //!< block updates
    std::uint64_t edges = 0;      //!< edge traversals
    /** Scatter writes into state other blocks read: one per out-edge
     *  scattered to for serial and async (the paper's edge-carried
     *  writes; one published copy is stored); for accum, one per shared
     *  accumulator combine — a combiner flush per distinct
     *  destination plus each direct in-block combine — so it shows
     *  the pre-combining against `edges`. */
    std::uint64_t scatters = 0;
    /** Entries the activation step walked: the destination-block
     *  sidecar of each scattered vertex, or the block's union of it
     *  (core/state.hh's activateDestinations).  0 for accum, whose
     *  flush activates per combined destination. */
    std::uint64_t activationEntries = 0;
    std::uint64_t active = 0;     //!< vertices moved by more than tol
    double l1 = 0.0;              //!< L1 value move
};

/**
 * Residual accumulator of one convergence series between two samples.
 * Not synchronized: its owner serializes access (control lock, claim
 * flag or a single-threaded loop).
 */
struct ConvergenceWindow
{
    std::shared_ptr<obs::ConvergenceSeries> series;   //!< may be null
    double l1 = 0.0;
    std::uint64_t active = 0;
    double nextSample = 0.0;   //!< epoch of the next interval sample
    double simSeconds = 0.0;   //!< simulated time, set by a simulator
};

class RunAccounting
{
  public:
    /**
     * Starts the run's clock and opens its root span; under the serve
     * layer the span nests into the submitting job's causal tree.
     * @param span_name root span name (a string literal).
     */
    RunAccounting(const char *span_name, VertexId num_vertices,
                  const EngineOptions &opt);

    RunAccounting(const RunAccounting &) = delete;
    RunAccounting &operator=(const RunAccounting &) = delete;

    /** Tally one block's work and publish it.  Thread safe. */
    void
    count(const BlockWork &w)
    {
        vertexUpdates_.fetch_add(w.vertices, std::memory_order_relaxed);
        blockUpdates_.fetch_add(w.blocks, std::memory_order_relaxed);
        edgeTraversals_.fetch_add(w.edges, std::memory_order_relaxed);
        scatterWrites_.fetch_add(w.scatters, std::memory_order_relaxed);
        activationEntries_.fetch_add(w.activationEntries,
                                     std::memory_order_relaxed);
        if (progress_) {
            progress_->accumulate(w.vertices, w.blocks, w.edges, w.scatters,
                                  w.activationEntries);
        }
    }

    std::uint64_t
    vertexUpdates() const
    {
        return vertexUpdates_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    blockUpdates() const
    {
        return blockUpdates_.load(std::memory_order_relaxed);
    }

    double
    epochs() const
    {
        return static_cast<double>(vertexUpdates()) / n_;
    }

    /** @return whether the maxEpochs update budget is used up. */
    bool budgetSpent() const { return vertexUpdates() >= maxUpdates_; }

    /** The run-wide window (options.convergence). */
    ConvergenceWindow &window() { return window_; }

    /**
     * Fold `w` into `win` and record a sample once the run crosses the
     * window's next interval boundary.  No-op under GRAPHABCD_OBS=OFF.
     * @return whether a sample was recorded.
     */
    bool
    observe(ConvergenceWindow &win, const BlockWork &w) const
    {
        if constexpr (obs::kEnabled) {
            win.l1 += w.l1;
            win.active += w.active;
            if (win.series && epochs() + 1e-12 >= win.nextSample) {
                win.nextSample = epochs() + interval_;
                sample(win, false);
                return true;
            }
        }
        return false;
    }

    bool observe(const BlockWork &w) { return observe(window_, w); }

    /** Record the window as one point (if it has a series), then reset. */
    void sample(ConvergenceWindow &win, bool final) const;

    /**
     * Record the run-wide final point, fold the run's scheduler
     * counters into the registry and assemble the report.
     * report.residual is the final window's L1 (obs builds only).
     */
    EngineReport finish(const BlockScheduler &sched, bool stopped,
                        bool converged);

  private:
    obs::Span span_;
    Timer timer_;
    const double n_;
    const std::uint64_t maxUpdates_;
    const double interval_;
    const std::shared_ptr<Progress> progress_;
    std::atomic<std::uint64_t> vertexUpdates_{0};
    std::atomic<std::uint64_t> blockUpdates_{0};
    std::atomic<std::uint64_t> edgeTraversals_{0};
    std::atomic<std::uint64_t> scatterWrites_{0};
    std::atomic<std::uint64_t> activationEntries_{0};
    ConvergenceWindow window_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_RUN_ACCOUNTING_HH
