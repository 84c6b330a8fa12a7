#include "obs/trace.hh"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/log.hh"
#include "obs/metrics.hh"

namespace graphabcd {

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder instance;
    return instance;
}

namespace {

std::atomic<std::uint64_t> nextRecorderId{1};

} // namespace

TraceRecorder::TraceRecorder(std::size_t events_per_thread)
    : ringCapacity_(events_per_thread == 0 ? 1 : events_per_thread),
      id_(nextRecorderId.fetch_add(1, std::memory_order_relaxed))
{
}

TraceRecorder::Ring &
TraceRecorder::threadRing()
{
    // One cached ring per (thread, recorder) pair; a thread that talks
    // to several recorders re-registers on each switch, which only
    // happens in tests.  The cache keys on the recorder's id, not its
    // address: a recorder built where a destroyed one lived must not
    // inherit that one's ring.
    struct Cache
    {
        std::uint64_t owner = 0;
        std::shared_ptr<Ring> ring;
    };
    thread_local Cache cache;
    if (cache.owner != id_) {
        std::lock_guard<std::mutex> lock(registerMtx_);
        auto ring = std::make_shared<Ring>(
            ringCapacity_, static_cast<std::uint32_t>(rings_.size()));
        rings_.push_back(ring);
        cache.owner = id_;
        cache.ring = std::move(ring);
    }
    return *cache.ring;
}

TraceRecorder::Ring &
TraceRecorder::trackRing(std::uint32_t track)
{
    std::lock_guard<std::mutex> lock(registerMtx_);
    while (tracks_.size() <= track) {
        tracks_.push_back(std::make_shared<Ring>(
            ringCapacity_,
            kTrackBase + static_cast<std::uint32_t>(tracks_.size())));
    }
    return *tracks_[track];
}

void
TraceRecorder::pushInto(Ring &ring, const TraceEvent &event)
{
    bool overwrote = false;
    {
        std::lock_guard<std::mutex> lock(ring.mtx);
        overwrote = ring.wrapped;   // this push replaces the oldest
        ring.events[ring.next] = event;
        ring.next++;
        if (ring.next == ring.events.size()) {
            ring.next = 0;
            ring.wrapped = true;
        }
    }
    if (overwrote)
        noteDropped();
}

void
TraceRecorder::noteDropped()
{
    dropped_.fetch_add(1, std::memory_order_relaxed);
    // Mirror into the registry so drop pressure shows up on /metrics.
    // Resolved once (registration takes a mutex); test recorders share
    // the same process-wide counter, which is fine for a loss signal.
    static Counter &counter =
        MetricsRegistry::global().counter("obs.trace.dropped");
    counter.add(1);
}

void
TraceRecorder::push(const TraceEvent &event)
{
    pushInto(threadRing(), event);
}

void
TraceRecorder::pushOnTrack(std::uint32_t track, const TraceEvent &event)
{
    pushInto(trackRing(track), event);
}

std::size_t
TraceRecorder::eventCount() const
{
    std::size_t total = 0;
    std::lock_guard<std::mutex> reg(registerMtx_);
    for (const auto &rings : {&rings_, &tracks_}) {
        for (const auto &ring : *rings) {
            std::lock_guard<std::mutex> lock(ring->mtx);
            total += ring->wrapped ? ring->events.size() : ring->next;
        }
    }
    return total;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> reg(registerMtx_);
    for (const auto &rings : {&rings_, &tracks_}) {
        for (const auto &ring : *rings) {
            std::lock_guard<std::mutex> lock(ring->mtx);
            ring->next = 0;
            ring->wrapped = false;
        }
    }
    dropped_.store(0, std::memory_order_relaxed);
}

namespace {

struct FlatEvent
{
    TraceEvent event;
    std::uint32_t tid;
};

} // namespace

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    std::vector<FlatEvent> all;
    {
        std::lock_guard<std::mutex> reg(registerMtx_);
        for (const auto &rings : {&rings_, &tracks_}) {
            for (const auto &ring : *rings) {
                std::lock_guard<std::mutex> lock(ring->mtx);
                const std::size_t n =
                    ring->wrapped ? ring->events.size() : ring->next;
                for (std::size_t i = 0; i < n; i++)
                    all.push_back(FlatEvent{ring->events[i], ring->tid});
            }
        }
    }
    std::sort(all.begin(), all.end(),
              [](const FlatEvent &a, const FlatEvent &b) {
                  return a.event.tsMicros < b.event.tsMicros;
              });

    os << "{\"traceEvents\":[";
    bool first = true;
    for (const FlatEvent &fe : all) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":" << obs::jsonQuote(fe.event.name);
        os << ",\"ph\":\"" << fe.event.phase << "\"";
        os << ",\"ts\":" << fe.event.tsMicros;
        if (fe.event.phase == 'X')
            os << ",\"dur\":" << fe.event.durMicros;
        else if (fe.event.phase == 'i')
            os << ",\"s\":\"t\"";
        if (fe.event.span != 0) {
            os << ",\"args\":{\"job\":" << fe.event.job
               << ",\"span\":" << fe.event.span
               << ",\"parent\":" << fe.event.parent << "}";
        }
        os << ",\"pid\":0,\"tid\":" << fe.tid << "}";
    }
    os << "\n]}\n";
}

bool
TraceRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(out);
    return static_cast<bool>(out);
}

} // namespace graphabcd
