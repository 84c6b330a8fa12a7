/**
 * @file
 * obs:: — the facade instrumentation sites use.
 *
 * With GRAPHABCD_OBS_ENABLED=1 (the default, and the CMake option
 * GRAPHABCD_OBS), obs::counter/gauge/histogram resolve against the
 * process-wide MetricsRegistry and obs::Span records into the global
 * TraceRecorder.  With GRAPHABCD_OBS_ENABLED=0 every facade type is an
 * empty inline no-op, so instrumented code compiles to exactly the
 * uninstrumented hot loop — no clock reads, no atomics, no branches —
 * which is how bench/ numbers stay comparable across the flag.
 *
 * Call-site rules:
 *  - resolve metrics once per run (registration takes a mutex), record
 *    per block — never per edge;
 *  - wrap timed regions in obs::ScopedLatency / obs::Span so the
 *    disabled build also skips the clock reads;
 *  - use `if constexpr (obs::kEnabled)` around set-up work (e.g.
 *    stamping) whose only consumer is a metric.
 */

#ifndef GRAPHABCD_OBS_OBS_HH
#define GRAPHABCD_OBS_OBS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#ifndef GRAPHABCD_OBS_ENABLED
#define GRAPHABCD_OBS_ENABLED 1
#endif

// Self-gated headers (they carry their own OFF stubs): the causal span
// context and the stall watchdog surface exist in both build modes.
#include "obs/span.hh"
#include "obs/watchdog.hh"

#if GRAPHABCD_OBS_ENABLED
#include "obs/convergence.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "support/timer.hh"
#endif

namespace graphabcd {
namespace obs {

#if GRAPHABCD_OBS_ENABLED

inline constexpr bool kEnabled = true;

using Counter = ::graphabcd::Counter;
using Gauge = ::graphabcd::Gauge;
using Histogram = ::graphabcd::Histogram;

inline Counter &
counter(const char *name)
{
    return MetricsRegistry::global().counter(name);
}

inline Gauge &
gauge(const char *name)
{
    return MetricsRegistry::global().gauge(name);
}

inline Histogram &
histogram(const char *name, std::vector<double> upper_bounds)
{
    return MetricsRegistry::global().histogram(name,
                                               std::move(upper_bounds));
}

/**
 * Causal span against the global TraceRecorder: child of the thread's
 * ambient context, exported with job/span/parent args (obs/span.hh).
 */
using Span = CausalSpan;

/** Instant event attributed to a specific span context. */
inline void
instantSpan(const char *name, const SpanContext &ctx)
{
    TraceRecorder::global().instant(name, ctx.job, ctx.span, ctx.parent);
}

/** Record a finished span with an explicit context and timestamps —
 *  for spans whose lifetime does not fit a C++ scope (queue wait,
 *  whole-job envelope). */
inline void
completeSpan(const char *name, double start_us, double dur_us,
             const SpanContext &ctx)
{
    TraceRecorder::global().complete(name, start_us, dur_us, ctx.job,
                                     ctx.span, ctx.parent);
}

/** Records elapsed microseconds into a histogram on scope exit. */
class ScopedLatency
{
  public:
    explicit ScopedLatency(Histogram &hist) : hist_(hist) {}
    ~ScopedLatency() { hist_.record(timer_.micros()); }

    ScopedLatency(const ScopedLatency &) = delete;
    ScopedLatency &operator=(const ScopedLatency &) = delete;

  private:
    Histogram &hist_;
    Timer timer_;
};

/** @return the whole registry rendered as text (STATS verb). */
inline std::string
dumpMetrics()
{
    return MetricsRegistry::global().dump();
}

/** Turn global trace recording on or off. */
inline void
setTracingEnabled(bool on)
{
    TraceRecorder::global().setEnabled(on);
}

/** @return buffered trace events across all threads. */
inline std::size_t
traceEventCount()
{
    return TraceRecorder::global().eventCount();
}

/** Export the global trace as Chrome trace_event JSON. */
inline bool
writeTrace(const std::string &path)
{
    return TraceRecorder::global().writeChromeTrace(path);
}

/** Record a span on a virtual trace track (simulated timelines). */
inline void
completeOnTrack(std::uint32_t track, const char *name, double start_us,
                double dur_us)
{
    TraceRecorder::global().completeOnTrack(track, name, start_us,
                                            dur_us);
}

using ConvergencePoint = ::graphabcd::ConvergencePoint;
using ConvergenceSeries = ::graphabcd::ConvergenceSeries;

/** Open a new series in the process-wide convergence recorder. */
inline std::shared_ptr<ConvergenceSeries>
beginConvergence(std::string label)
{
    return ConvergenceRecorder::global().begin(std::move(label));
}

/** One series as CSV (header row included). */
inline std::string
convergenceCsv(const ConvergenceSeries &series)
{
    return ConvergenceRecorder::csv(series);
}

/** The registry as Prometheus text exposition (METRICS verb). */
inline std::string
prometheusText()
{
    return ::graphabcd::prometheusText();
}

/** Start/stop the process-wide periodic sampler. */
inline void
startSampler(double interval_seconds)
{
    Sampler::global().start(interval_seconds);
}

inline void
stopSampler()
{
    Sampler::global().stop();
}

/** Arm the flight recorder: default dump path + log tap + fatal hook. */
inline void
flightArm(std::string path)
{
    FlightRecorder::global().arm(std::move(path));
}

/** Install fatal-signal handlers that dump the armed flight recorder. */
inline void
flightArmSignals()
{
    FlightRecorder::global().armSignals();
}

/** Remove the flight recorder's tap/hook and forget the path. */
inline void
flightDisarm()
{
    FlightRecorder::global().disarm();
}

/** Dump the black box to an explicit path (works without arming). */
inline bool
flightDump(const std::string &path, const std::string &reason)
{
    return FlightRecorder::global().dump(path, reason);
}

/** Append a free-form note to the flight recorder's window. */
inline void
flightNote(const char *component, std::string text)
{
    FlightRecorder::global().note(component, std::move(text));
}

/** Register / remove a named JSON snapshot provider (see flight.hh). */
inline std::uint64_t
flightAddProvider(std::string name, std::function<std::string()> fn)
{
    return FlightRecorder::global().addProvider(std::move(name),
                                                std::move(fn));
}

inline void
flightRemoveProvider(std::uint64_t token)
{
    FlightRecorder::global().removeProvider(token);
}

#else // !GRAPHABCD_OBS_ENABLED

inline constexpr bool kEnabled = false;

// No-op doubles: same call surface, empty bodies, shared static
// instances.  The optimiser removes every call site.
struct Counter
{
    void add(std::uint64_t = 1) const {}
    std::uint64_t value() const { return 0; }
};

struct Gauge
{
    void set(double) const {}
    double value() const { return 0.0; }
};

struct Histogram
{
    void record(double) const {}
    void recordExemplar(double, std::uint64_t, std::uint64_t) const {}
};

inline Counter &
counter(const char *)
{
    static Counter c;
    return c;
}

inline Gauge &
gauge(const char *)
{
    static Gauge g;
    return g;
}

inline Histogram &
histogram(const char *, std::vector<double>)
{
    static Histogram h;
    return h;
}

using Span = CausalSpan;   // the span.hh no-op stub

inline void
instantSpan(const char *, const SpanContext &)
{
}

inline void
completeSpan(const char *, double, double, const SpanContext &)
{
}

struct ScopedLatency
{
    explicit ScopedLatency(Histogram &) {}
};

inline std::string
dumpMetrics()
{
    return {};
}

inline void
setTracingEnabled(bool)
{
}

inline std::size_t
traceEventCount()
{
    return 0;
}

inline bool
writeTrace(const std::string &)
{
    return false;
}

inline void
completeOnTrack(std::uint32_t, const char *, double, double)
{
}

/** Same field layout as the enabled ConvergencePoint, so code that
 *  builds one inside `if constexpr (obs::kEnabled)`-free sections
 *  still compiles (the values go nowhere). */
struct ConvergencePoint
{
    double epochs = 0.0;
    double residual = 0.0;
    std::uint64_t activeVertices = 0;
    std::uint64_t vertexUpdates = 0;
    std::uint64_t edgeTraversals = 0;
    double wallSeconds = 0.0;
    double simSeconds = 0.0;
};

struct ConvergenceSeries
{
    void record(const ConvergencePoint &) const {}
    void recordFinal(const ConvergencePoint &) const {}
    std::size_t size() const { return 0; }
    ConvergencePoint back() const { return {}; }
    std::string label() const { return {}; }
};

/** Always null when observability is compiled out. */
inline std::shared_ptr<ConvergenceSeries>
beginConvergence(std::string)
{
    return nullptr;
}

inline std::string
convergenceCsv(const ConvergenceSeries &)
{
    return {};
}

inline std::string
prometheusText()
{
    return {};
}

inline void
startSampler(double)
{
}

inline void
stopSampler()
{
}

inline void
flightArm(std::string)
{
}

inline void
flightArmSignals()
{
}

inline void
flightDisarm()
{
}

inline bool
flightDump(const std::string &, const std::string &)
{
    return false;
}

inline void
flightNote(const char *, std::string)
{
}

inline std::uint64_t
flightAddProvider(std::string, std::function<std::string()>)
{
    return 0;
}

inline void
flightRemoveProvider(std::uint64_t)
{
}

#endif // GRAPHABCD_OBS_ENABLED

/**
 * Make an externally supplied string (a tenant name) safe to embed in
 * a metric key: anything outside [A-Za-z0-9_.:-] becomes '_', the
 * result is truncated to 64 chars and never empty.  Without this, a
 * tenant named `evil"\n` would corrupt the Prometheus exposition the
 * key is later rendered into (prometheusName() re-sanitises for the
 * exposition charset, but spaces/quotes/newlines must die here so the
 * registry key itself — and the plain dump() output — stays one
 * token).  Distinct raw names may collide after sanitisation; QoS
 * accounting keys on the raw name, only the metrics alias.
 */
inline std::string
sanitizeMetricComponent(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '-' || c == '.' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (out.empty())
        out = "_";
    if (out.size() > 64)
        out.resize(64);
    return out;
}

/** Shared bucket layouts, so dashboards can compare like with like. */
inline std::vector<double>
latencyBucketsUs()
{
    return {1,    2,    5,     10,    20,    50,    100,   200,
            500,  1000, 2000,  5000,  10000, 20000, 50000, 100000,
            200000, 500000, 1000000};
}

inline std::vector<double>
fanoutBuckets()
{
    return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096};
}

inline std::vector<double>
stalenessBuckets()
{
    return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
}

inline std::vector<double>
fractionBuckets()
{
    return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

} // namespace obs
} // namespace graphabcd

#endif // GRAPHABCD_OBS_OBS_HH
