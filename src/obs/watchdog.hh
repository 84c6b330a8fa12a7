/**
 * @file
 * StallWatchdog — detects jobs whose progress counters have gone flat.
 *
 * The asynchronous execution models this repo reproduces (GraphABCD's
 * barrier-free block scheduling, Maiter-style delta accumulation) share
 * a failure mode: a bug does not crash, it simply stops making progress
 * — a lost wakeup, a termination check that never fires, a block that
 * nobody requeues.  Metrics alone cannot distinguish "slow" from
 * "wedged"; a watchdog that samples a job's monotone progress counters
 * can.
 *
 * One background thread polls every watched task each checkSeconds.
 * A task whose progress value has not moved for windowSeconds while
 * watched is *flagged*: the on-stall callback fires once (outside the
 * watchdog mutex), a structured WARN is emitted, the
 * `serve.jobs.stalled` gauge rises, and — if a FlightRecorder is armed
 * — the black box is dumped with the stall as the reason.  A flagged
 * task whose counter moves again is unflagged (recovery), and may be
 * flagged again later; the callback refires per episode.
 *
 * The progress callback must be lock-free (it is invoked under the
 * watchdog mutex): summing relaxed atomics, reading a gauge.  The
 * JobManager registers each Running job with a closure over its
 * Progress sink and unregisters on completion, so only Running jobs
 * are ever inspected.
 *
 * Built only with GRAPHABCD_OBS_ENABLED=1; the OFF build gets an empty
 * stub with the same surface so `if constexpr (obs::kEnabled)` call
 * sites still parse.
 */

#ifndef GRAPHABCD_OBS_WATCHDOG_HH
#define GRAPHABCD_OBS_WATCHDOG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#ifndef GRAPHABCD_OBS_ENABLED
#define GRAPHABCD_OBS_ENABLED 1
#endif

#if GRAPHABCD_OBS_ENABLED

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace graphabcd {
namespace obs {

/** Background flat-progress detector (see file comment). */
class StallWatchdog
{
  public:
    struct Config
    {
        /** Flat-progress window before a task is flagged. */
        double windowSeconds = 5.0;
        /** Poll period of the background thread. */
        double checkSeconds = 0.25;
        /** Gauge holding the number of currently flagged tasks. */
        const char *stalledGaugeName = "serve.jobs.stalled";
        /** Counter of stall episodes (monotonic). */
        const char *eventsCounterName = "serve.jobs.stall_events";
        /** Dump the armed FlightRecorder on each stall episode. */
        bool dumpFlightOnStall = true;
    };

    /** Snapshot of the watched progress value; must be lock-free. */
    using ProgressFn = std::function<std::uint64_t()>;
    /** Fired once per stall episode, outside the watchdog mutex. */
    using StallFn = std::function<void(const std::string &diagnosis)>;

    /** Default-configured watchdog (defined out of line: a nested
     *  aggregate's member initializers are not usable as an in-class
     *  default argument). */
    StallWatchdog();

    explicit StallWatchdog(Config config);

    /** Stops and joins the poll thread. */
    ~StallWatchdog();

    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

    /** Start the background poll thread (idempotent). */
    void start();

    /** Stop and join the poll thread (idempotent). */
    void stop();

    /**
     * Begin watching a task.  The window starts now: a task that never
     * moves its counter is flagged after windowSeconds.
     * @param id caller-chosen key (the serve JobId); re-watching an id
     *        replaces the previous entry.
     * @param label human-readable name carried into the diagnosis.
     */
    void watch(std::uint64_t id, std::string label, ProgressFn progress,
               StallFn on_stall);

    /** Stop watching (no-op for unknown ids). */
    void unwatch(std::uint64_t id);

    /** Run one poll pass synchronously (tests; thread need not run). */
    void pollNow();

    /** @return stall episodes fired over the watchdog's lifetime. */
    std::uint64_t stallEvents() const;

    /** @return tasks currently flagged as stalled. */
    std::size_t flaggedCount() const;

    /** @return whether a specific task is currently flagged. */
    bool isFlagged(std::uint64_t id) const;

  private:
    struct Entry
    {
        std::string label;
        ProgressFn progress;
        StallFn onStall;
        std::uint64_t lastValue = 0;
        double lastChangeAt = 0.0;   //!< monotonicSeconds()
        bool flagged = false;
    };

    void loop();
    void checkOnce();

    const Config cfg_;

    mutable std::mutex mtx_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> tasks_;
    std::uint64_t events_ = 0;
    std::size_t flagged_ = 0;
    bool running_ = false;        //!< poll thread alive
    bool stopRequested_ = false;
    std::thread thread_;
};

} // namespace obs
} // namespace graphabcd

#else // !GRAPHABCD_OBS_ENABLED

namespace graphabcd {
namespace obs {

/** No-op stub: same surface, empty bodies, nothing compiled in. */
class StallWatchdog
{
  public:
    struct Config
    {
        double windowSeconds = 5.0;
        double checkSeconds = 0.25;
        const char *stalledGaugeName = "";
        const char *eventsCounterName = "";
        bool dumpFlightOnStall = true;
    };

    StallWatchdog() {}
    explicit StallWatchdog(Config) {}

    void start() {}
    void stop() {}

    template <typename ProgressFn, typename StallFn>
    void
    watch(std::uint64_t, std::string, ProgressFn &&, StallFn &&)
    {
    }

    void unwatch(std::uint64_t) {}
    void pollNow() {}
    std::uint64_t stallEvents() const { return 0; }
    std::size_t flaggedCount() const { return 0; }
    bool isFlagged(std::uint64_t) const { return false; }
};

} // namespace obs
} // namespace graphabcd

#endif // GRAPHABCD_OBS_ENABLED

#endif // GRAPHABCD_OBS_WATCHDOG_HH
