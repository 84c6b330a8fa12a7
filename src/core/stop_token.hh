/**
 * @file
 * Cooperative cancellation and progress observation for engine runs.
 *
 * The serve layer (src/serve) turns one-shot engine runs into managed
 * jobs; that needs two hooks plumbed through every engine:
 *
 *  - a StopToken the engine polls at block-update granularity.  A token
 *    combines a shared cancel flag (set by JobManager::cancel or
 *    service shutdown) with an optional monotonic-clock deadline, so
 *    per-job timeouts need no extra timer thread.  Polling per block
 *    keeps the hot loop branch-predictable: one relaxed atomic load and
 *    (only when a deadline is armed) one steady_clock read.
 *
 *    Because both causes fire through the same stopRequested() answer,
 *    the channel also records *when* the first requestStop() happened
 *    (steady-clock seconds), so a finisher can attribute the halt to
 *    the cancel or to the deadline by which instant came first —
 *    requestStopAtSeconds() and deadlineAtSeconds() are on the same
 *    raw steady_clock scale (NOT monotonicSeconds(), whose epoch is
 *    process-local).
 *
 *  - a Progress sink of relaxed atomic counters the engine publishes
 *    into as it works, so JobStatus snapshots are readable from any
 *    thread while the run is in flight, without locks on the data path.
 *
 * Both are optional: a default-constructed StopToken never fires and a
 * null Progress pointer disables publishing, so standalone engine users
 * pay nothing.
 */

#ifndef GRAPHABCD_CORE_STOP_TOKEN_HH
#define GRAPHABCD_CORE_STOP_TOKEN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace graphabcd {

namespace detail {

/**
 * Shared state of a cancellation channel: the sticky stop flag plus the
 * steady-clock instant of the first requestStop() (0 = never), so halt
 * causes can be attributed after the fact.
 */
struct StopState
{
    std::atomic<bool> stop{false};
    std::atomic<double> requestedAt{0.0};
};

/** Seconds since the (arbitrary) steady_clock epoch. */
inline double
steadyNowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace detail

/**
 * View side of a cancellation channel.  Copyable and cheap; safe to
 * poll from any thread.  A default-constructed token never requests a
 * stop (unless a deadline is armed via withDeadline()).
 */
class StopToken
{
  public:
    StopToken() = default;

    /** @return whether this token could ever fire. */
    bool
    stopPossible() const
    {
        return state_ != nullptr || hasDeadline();
    }

    /** @return whether the run should end now (cancel or deadline). */
    bool
    stopRequested() const
    {
        if (state_ && state_->stop.load(std::memory_order_acquire))
            return true;
        return hasDeadline() && Clock::now() >= deadline_;
    }

    /** @return whether the deadline (not the cancel flag) has fired. */
    bool
    deadlineExpired() const
    {
        return hasDeadline() && Clock::now() >= deadline_;
    }

    /**
     * @return the armed deadline as seconds since the steady_clock
     * epoch (comparable to StopSource::requestStopAtSeconds()), or
     * 0.0 when no deadline is armed.
     */
    double
    deadlineAtSeconds() const
    {
        if (!hasDeadline())
            return 0.0;
        return std::chrono::duration<double>(
                   deadline_.time_since_epoch())
            .count();
    }

    /**
     * @return a copy of this token that additionally fires
     * `seconds_from_now` from the moment of this call.
     */
    StopToken
    withDeadline(double seconds_from_now) const
    {
        StopToken t(*this);
        t.deadline_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds_from_now));
        return t;
    }

  private:
    friend class StopSource;

    using Clock = std::chrono::steady_clock;

    explicit StopToken(std::shared_ptr<const detail::StopState> state)
        : state_(std::move(state))
    {
    }

    bool
    hasDeadline() const
    {
        return deadline_ != Clock::time_point::max();
    }

    std::shared_ptr<const detail::StopState> state_;
    Clock::time_point deadline_ = Clock::time_point::max();
};

/**
 * Owner side of a cancellation channel.  requestStop() is sticky and
 * idempotent; every token handed out observes it.
 */
class StopSource
{
  public:
    StopSource() : state_(std::make_shared<detail::StopState>()) {}

    void
    requestStop()
    {
        // Record the first request's instant *before* raising the flag,
        // so any reader that observes stop==true also observes a
        // non-zero timestamp (release store orders the pair).
        double expected = 0.0;
        state_->requestedAt.compare_exchange_strong(
            expected, detail::steadyNowSeconds(),
            std::memory_order_relaxed, std::memory_order_relaxed);
        state_->stop.store(true, std::memory_order_release);
    }

    bool
    stopRequested() const
    {
        return state_->stop.load(std::memory_order_acquire);
    }

    /**
     * @return the steady-clock instant (seconds) of the first
     * requestStop(), or 0.0 if none happened yet.  Comparable to
     * StopToken::deadlineAtSeconds(): whichever is smaller fired first.
     */
    double
    requestStopAtSeconds() const
    {
        return state_->requestedAt.load(std::memory_order_acquire);
    }

    /** @return a token observing this source (no deadline). */
    StopToken token() const { return StopToken(state_); }

  private:
    std::shared_ptr<detail::StopState> state_;
};

/**
 * Live work counters an engine publishes while running.  All stores and
 * loads are relaxed: snapshots are monitoring data, not synchronisation.
 */
struct Progress
{
    std::atomic<std::uint64_t> vertexUpdates{0};
    std::atomic<std::uint64_t> blockUpdates{0};
    std::atomic<std::uint64_t> edgeTraversals{0};
    std::atomic<std::uint64_t> scatterWrites{0};
    std::atomic<std::uint64_t> activationEntries{0};

    /** Add per-block increments (RunAccounting::count, thread safe). */
    void
    accumulate(std::uint64_t vertex_updates, std::uint64_t block_updates,
               std::uint64_t edge_traversals,
               std::uint64_t scatter_writes,
               std::uint64_t activation_entries)
    {
        vertexUpdates.fetch_add(vertex_updates, std::memory_order_relaxed);
        blockUpdates.fetch_add(block_updates, std::memory_order_relaxed);
        edgeTraversals.fetch_add(edge_traversals,
                                 std::memory_order_relaxed);
        scatterWrites.fetch_add(scatter_writes,
                                std::memory_order_relaxed);
        activationEntries.fetch_add(activation_entries,
                                    std::memory_order_relaxed);
    }
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_STOP_TOKEN_HH
