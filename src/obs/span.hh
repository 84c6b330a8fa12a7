/**
 * @file
 * Causal span propagation — the per-job trace context that links a
 * serve request to every engine run and executor task it spawns.
 *
 * A SpanContext names one node of a job's span tree: the owning JobId,
 * a process-unique span id, and the parent span id (0 for the root).
 * JobManager::submit allocates the root; the context then rides along
 * explicitly (Executor::Task captures the submitter's ambient context)
 * and ambiently (a thread-local slot installed by SpanScope), so a
 * CausalSpan opened anywhere below the root lands in the same tree
 * without any plumbing through engine signatures.
 *
 * Chrome-trace export (TraceRecorder) writes the three ids as event
 * `args`, so a trace viewer — or the span-tree test — can reassemble
 * one causally-linked tree per job out of the per-thread rings.
 *
 * This header stands alone (the executor includes it directly, and
 * src/runtime must stay light): with GRAPHABCD_OBS_ENABLED=0 the
 * context keeps its POD layout so structs embedding it still compile,
 * but currentSpan() is a constant and SpanScope/CausalSpan are empty —
 * the optimiser removes every call site.
 */

#ifndef GRAPHABCD_OBS_SPAN_HH
#define GRAPHABCD_OBS_SPAN_HH

#include <cstdint>

#ifndef GRAPHABCD_OBS_ENABLED
#define GRAPHABCD_OBS_ENABLED 1
#endif

#if GRAPHABCD_OBS_ENABLED
#include <atomic>

#include "obs/trace.hh"
#endif

namespace graphabcd {
namespace obs {

/** One node of a job's span tree (POD in both build modes). */
struct SpanContext
{
    std::uint64_t job = 0;    //!< owning serve JobId; 0 = none
    std::uint64_t span = 0;   //!< this span's id; 0 = no span
    std::uint64_t parent = 0; //!< parent span id; 0 = tree root

    bool valid() const { return span != 0; }
};

#if GRAPHABCD_OBS_ENABLED

/** @return a process-unique span id (never 0). */
inline std::uint64_t
nextSpanId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace detail {

inline SpanContext &
currentSpanSlot()
{
    thread_local SpanContext slot;
    return slot;
}

} // namespace detail

/** The calling thread's ambient span context (a copy). */
inline SpanContext
currentSpan()
{
    return detail::currentSpanSlot();
}

/**
 * RAII: install a foreign context as the thread's ambient one (the
 * executor adopts the submitter's context around each task), restore
 * the previous context on exit.  An invalid context installs nothing.
 */
class SpanScope
{
  public:
    explicit SpanScope(const SpanContext &ctx)
        : prev_(detail::currentSpanSlot())
    {
        if (ctx.valid())
            detail::currentSpanSlot() = ctx;
    }

    ~SpanScope() { detail::currentSpanSlot() = prev_; }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanContext prev_;
};

/**
 * RAII causal span: allocates a child of the ambient context, installs
 * itself as the ambient context for its scope, and records one Chrome
 * "X" complete event (with job/span/parent args) on destruction.
 * Cheap no-op while the global TraceRecorder is disabled.
 * @param name must be a string literal (the recorder keeps the pointer).
 * @param job_id overrides the inherited JobId (roots of a job's tree).
 */
class CausalSpan
{
  public:
    explicit CausalSpan(const char *name, std::uint64_t job_id = 0)
    {
        TraceRecorder &recorder = TraceRecorder::global();
        if (!recorder.enabled())
            return;
        recorder_ = &recorder;
        name_ = name;
        SpanContext &slot = detail::currentSpanSlot();
        prev_ = slot;
        ctx_.job = job_id != 0 ? job_id : prev_.job;
        ctx_.span = nextSpanId();
        ctx_.parent = prev_.span;
        slot = ctx_;
        startMicros_ = TraceRecorder::nowMicros();
    }

    ~CausalSpan()
    {
        if (!recorder_)
            return;
        detail::currentSpanSlot() = prev_;
        recorder_->complete(name_, startMicros_,
                            TraceRecorder::nowMicros() - startMicros_,
                            ctx_.job, ctx_.span, ctx_.parent);
    }

    CausalSpan(const CausalSpan &) = delete;
    CausalSpan &operator=(const CausalSpan &) = delete;

    /** This span's context ({} when the recorder was disabled). */
    const SpanContext &context() const { return ctx_; }

  private:
    TraceRecorder *recorder_ = nullptr;
    const char *name_ = nullptr;
    double startMicros_ = 0.0;
    SpanContext ctx_{};
    SpanContext prev_{};
};

#else // !GRAPHABCD_OBS_ENABLED

inline std::uint64_t
nextSpanId()
{
    return 0;
}

inline SpanContext
currentSpan()
{
    return {};
}

struct SpanScope
{
    explicit SpanScope(const SpanContext &) {}
};

struct CausalSpan
{
    explicit CausalSpan(const char *, std::uint64_t = 0) {}
    SpanContext context() const { return {}; }
};

#endif // GRAPHABCD_OBS_ENABLED

} // namespace obs
} // namespace graphabcd

#endif // GRAPHABCD_OBS_SPAN_HH
