/**
 * @file
 * Benchmark-side span recorder.
 *
 * The benchmark times every call it makes into a layer's public API
 * (graph loaders, BlockPartition, GraphRegistry, JobManager) and
 * records one span per call: name, start, end, parent span and the
 * request it belongs to.  Spans whose duration the program reports but
 * whose boundaries it does not expose (queue wait, service run, engine
 * run — from JobStatus and EngineReport) are added as *derived* spans,
 * placed at the end of the call that observed them.
 *
 * Spans stay in memory and are written at exit as Chrome trace_event
 * JSON plus a per-layer self-time summary.  The program's own
 * obs::TraceRecorder stays off: nothing here is compiled into src/.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (the only clock the benchmark uses). */
double nowSeconds();

/** One recorded span; times are nowSeconds() values. */
struct SpanRecord
{
    std::string name;          //!< "<layer>.<call>", e.g. "serve.submit"
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;      //!< unique, never 0
    std::uint64_t parent = 0;  //!< 0 = root
    std::uint64_t request = 0; //!< per-request id shared by a job's spans
    std::uint32_t thread = 0;  //!< small per-thread index
    bool derived = false;      //!< duration reported by the program
};

/** Thread-safe in-memory span store; a disabled recorder keeps nothing. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** @return a fresh span id (also used for request ids). */
    std::uint64_t nextId();

    void add(SpanRecord span);

    /** Add a derived span [end - seconds, end] under `parent`. */
    std::uint64_t addDerived(const char *name, double end, double seconds,
                             std::uint64_t parent, std::uint64_t request);

    /** Spans recorded so far (copy). */
    std::vector<SpanRecord> spans() const;

    /**
     * Self time per layer (the name prefix before the first '.'):
     * each span's duration minus the union of its children's
     * intervals clipped to it.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Total duration per span name. */
    std::map<std::string, double> secondsByName() const;

    /** Write every span as Chrome trace_event JSON ("X" events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    const bool enabled_;
    mutable std::mutex mtx_;
    std::vector<SpanRecord> spans_;   //!< guarded by mtx_
    std::uint64_t nextId_ = 1;        //!< guarded by mtx_
};

/** RAII span: records [construction, destruction) when enabled. */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *name, std::uint64_t request,
         std::uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when the recorder is disabled). */
    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    const char *name_;
    std::uint64_t request_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    double start_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
