/**
 * @file
 * FlightRecorder — the process black box, dumped when something dies.
 *
 * A bounded in-memory window of what the process was doing (recent log
 * lines via a Logger tap, free-form notes, provider snapshots such as
 * the serve job table, the full metrics registry, and the trace rings)
 * serialised as one JSON document when:
 *
 *   - fatal()/panic() fire (the obs fatal hook, armed by arm()),
 *   - a fatal signal arrives (armSignals(): SIGSEGV/SIGABRT/...),
 *   - the stall watchdog flags a job (StallWatchdog config),
 *   - a caller asks (the DUMP verb of abcd_serve).
 *
 * Dump format (stable keys, all content self-describing):
 *
 *   { "reason": "...", "captured_at_micros": T,
 *     "notes":   [ {"ts_micros": T, "text": "..."}, ... ],
 *     "log":     [ "raw log lines, oldest first", ... ],
 *     "providers": { "<name>": <provider JSON>, ... },
 *     "metrics": { "counters": {...}, "gauges": {...},
 *                  "histograms": { "<name>": {count,sum,min,max,mean,
 *                                             p50,p99, exemplar...} } },
 *     "trace":   { "traceEvents": [...] } }   // Chrome trace, loadable
 *
 * Providers run during the dump *without* the recorder mutex, so they
 * may take their own locks (the serve provider takes the JobManager
 * mutex); they must return valid JSON.  A re-entrancy latch makes a
 * fault inside a dump (or a fatal raised by a provider) fall through
 * instead of recursing.
 *
 * Built only with GRAPHABCD_OBS_ENABLED=1; the OFF build's call sites
 * go through the obs.hh facade no-ops and this header is not included.
 */

#ifndef GRAPHABCD_OBS_FLIGHT_HH
#define GRAPHABCD_OBS_FLIGHT_HH

#ifndef GRAPHABCD_OBS_ENABLED
#define GRAPHABCD_OBS_ENABLED 1
#endif

#if GRAPHABCD_OBS_ENABLED

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace graphabcd {
namespace obs {

/** Process-wide black box (see file comment). */
class FlightRecorder
{
  public:
    /** The one recorder the hooks and the facade talk to. */
    static FlightRecorder &global();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Arm automatic dumps: remember the default dump path, install the
     * Logger tap (recent-log window) and the fatal hook.  Re-arming
     * replaces the path.
     */
    void arm(std::string default_path);

    /** Remove the tap/hook and forget the path (tests). */
    void disarm();

    bool armed() const;

    /**
     * Install best-effort handlers for fatal signals (SIGSEGV, SIGABRT,
     * SIGBUS, SIGFPE, SIGILL) that dump to the armed path, then restore
     * the default disposition and re-raise.  Not async-signal-safe in
     * the strict sense — the process is dying anyway, and a partial
     * dump beats none.  Call after arm().
     */
    void armSignals();

    /** Append a free-form note to the bounded window. */
    void note(const char *component, std::string text);

    /**
     * Register a named snapshot provider; its return value is embedded
     * verbatim under providers.<name>, so it must be valid JSON.
     * Called outside the recorder mutex during dumps.
     * @return a token for removeProvider (providers whose closures
     *         capture dying objects must deregister first).
     */
    std::uint64_t addProvider(std::string name,
                              std::function<std::string()> provider);

    void removeProvider(std::uint64_t token);

    /** Serialise the black box (reason included) to a JSON string. */
    std::string renderJson(const std::string &reason);

    /**
     * Dump to an explicit path (works without arm()).
     * @return whether the file was written.
     */
    bool dump(const std::string &path, const std::string &reason);

    /** Dump to the armed path; no-op (false) when not armed. */
    bool dumpIfArmed(const std::string &reason);

  private:
    FlightRecorder() = default;

    struct Note
    {
        double tsMicros;
        std::string text;
    };

    struct Provider
    {
        std::uint64_t token;
        std::string name;
        std::function<std::string()> fn;
    };

    static constexpr std::size_t kMaxNotes = 128;
    static constexpr std::size_t kMaxLogLines = 256;

    mutable std::mutex mtx_;
    bool armed_ = false;
    std::string path_;
    std::deque<Note> notes_;
    std::deque<std::string> logLines_;
    std::vector<Provider> providers_;
    std::uint64_t nextToken_ = 1;
    std::atomic<bool> dumping_{false};   //!< re-entrancy latch
};

} // namespace obs
} // namespace graphabcd

#endif // GRAPHABCD_OBS_ENABLED

#endif // GRAPHABCD_OBS_FLIGHT_HH
