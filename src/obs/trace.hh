/**
 * @file
 * TraceRecorder — begin/end spans and instant events in per-thread ring
 * buffers, exported as Chrome/Perfetto `trace_event` JSON.
 *
 * Each recording thread owns one fixed-capacity ring buffer (acquired
 * on first use and kept alive by the recorder even after the thread
 * exits, since engine workers are per-run).  A ring is written only by
 * its owner and read only during export, guarded by a per-ring mutex
 * that is uncontended in steady state — recording costs one relaxed
 * enabled-check, two steady_clock reads and one uncontended lock, all
 * at block granularity, never per edge.
 *
 * Spans are stored as Chrome "X" complete events (timestamp + duration
 * recorded at span end), so a wrapped ring never leaves an unmatched
 * begin behind; instant events use phase "i".  The exported file loads
 * directly in chrome://tracing and ui.perfetto.dev.
 *
 * Event names must be string literals (the recorder stores the
 * pointer, not a copy).
 */

#ifndef GRAPHABCD_OBS_TRACE_HH
#define GRAPHABCD_OBS_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/timer.hh"

namespace graphabcd {

/** One recorded event. */
struct TraceEvent
{
    const char *name = nullptr; //!< static string
    double tsMicros = 0.0;      //!< start time, process-relative
    double durMicros = 0.0;     //!< span length; 0 for instants
    char phase = 'X';           //!< 'X' complete span, 'i' instant
    // Causal span ids (obs/span.hh); all 0 for anonymous events.
    // Exported as Chrome event args {"job","span","parent"} so a
    // viewer can reassemble one tree per serve job.
    std::uint64_t job = 0;      //!< owning serve JobId
    std::uint64_t span = 0;     //!< span id; 0 = no span attached
    std::uint64_t parent = 0;   //!< parent span id; 0 = tree root
};

/** Per-thread ring buffers + Chrome trace_event JSON export. */
class TraceRecorder
{
  public:
    /** The process-wide recorder (what the TRACE verb exports). */
    static TraceRecorder &global();

    /** @param events_per_thread ring capacity; oldest events overwritten. */
    explicit TraceRecorder(std::size_t events_per_thread = 1 << 14);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Recording is off until enabled; a disabled record() is one
     *  relaxed load and no clock read. */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return microseconds since the process-local monotonic epoch. */
    static double nowMicros() { return monotonicSeconds() * 1e6; }

    /** Record a finished span carrying causal ids (obs/span.hh; all 0
     *  for an anonymous span); a no-op while disabled. */
    void
    complete(const char *name, double start_us, double dur_us,
             std::uint64_t job, std::uint64_t span, std::uint64_t parent)
    {
        if (enabled())
            push(TraceEvent{name, start_us, dur_us, 'X', job, span,
                            parent});
    }

    /** Record an instant event carrying causal ids. */
    void
    instant(const char *name, std::uint64_t job, std::uint64_t span,
            std::uint64_t parent)
    {
        if (enabled())
            push(TraceEvent{name, nowMicros(), 0.0, 'i', job, span,
                            parent});
    }

    /**
     * Virtual-track tids start here; real thread rings count up from 0
     * and never reach this range.
     */
    static constexpr std::uint32_t kTrackBase = 1u << 16;

    /**
     * Record a finished span on a virtual track instead of the calling
     * thread's ring.  Tracks carry timelines that belong to no host
     * thread — e.g. per-PE busy intervals from the HARP simulator,
     * where the timestamps are simulated microseconds.  The caller owns
     * timestamp semantics; mixing simulated and wall tracks in one
     * export is fine because Perfetto renders tids independently.
     * Unlike thread rings, any thread may write any track (mutex per
     * track, cold paths only).
     */
    void
    completeOnTrack(std::uint32_t track, const char *name,
                    double start_us, double dur_us)
    {
        if (enabled())
            pushOnTrack(track, TraceEvent{name, start_us, dur_us, 'X'});
    }

    /** @return retained events across all thread rings. */
    std::size_t eventCount() const;

    /**
     * Events lost to ring overwrite since construction (or the last
     * clear()).  A wrapped ring silently replaces its oldest event on
     * every push; this counter makes that loss visible — the global
     * recorder also mirrors it into the `obs.trace.dropped` counter so
     * /metrics shows when a trace window was too small.
     */
    std::uint64_t droppedCount() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Drop all retained events (rings stay registered). */
    void clear();

    /** Write `{"traceEvents": [...]}` JSON, sorted by timestamp. */
    void writeChromeTrace(std::ostream &os) const;

    /** @return whether the file could be opened and written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Ring
    {
        explicit Ring(std::size_t capacity, std::uint32_t tid_)
            : events(capacity), tid(tid_)
        {
        }

        mutable std::mutex mtx;   //!< owner-vs-export only
        std::vector<TraceEvent> events;
        std::size_t next = 0;
        bool wrapped = false;
        std::uint32_t tid;
    };

    Ring &threadRing();
    Ring &trackRing(std::uint32_t track);
    void pushInto(Ring &ring, const TraceEvent &event);
    void push(const TraceEvent &event);
    void pushOnTrack(std::uint32_t track, const TraceEvent &event);
    void noteDropped();

    const std::size_t ringCapacity_;
    const std::uint64_t id_;   //!< unique per recorder (threadRing cache)
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> dropped_{0};
    mutable std::mutex registerMtx_;   //!< rings_/tracks_ growth only
    std::vector<std::shared_ptr<Ring>> rings_;
    std::vector<std::shared_ptr<Ring>> tracks_;  //!< index = track id
};

} // namespace graphabcd

#endif // GRAPHABCD_OBS_TRACE_HH
