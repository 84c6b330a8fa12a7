#include "obs/sampler.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "obs/metrics.hh"
#include "support/timer.hh"

namespace graphabcd {

// -------------------------------------------------------------- Sampler

Sampler &
Sampler::global()
{
    static Sampler instance(MetricsRegistry::global());
    return instance;
}

Sampler::Sampler(MetricsRegistry &registry, std::size_t capacity)
    : registry_(registry), capacity_(std::max<std::size_t>(2, capacity))
{
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::start(double interval_seconds)
{
    stop();
    std::lock_guard<std::mutex> lock(mtx_);
    intervalSeconds_ = std::max(interval_seconds, 1e-3);
    if (epochSeconds_ < 0.0)
        epochSeconds_ = monotonicSeconds();
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread([this] { loop(); });
}

void
Sampler::stop()
{
    std::thread joinable;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!running_)
            return;
        {
            std::lock_guard<std::mutex> wake(wakeMtx_);
            stopRequested_ = true;
        }
        wakeCv_.notify_all();
        joinable = std::move(thread_);
        running_ = false;
    }
    if (joinable.joinable())
        joinable.join();
}

bool
Sampler::running() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return running_;
}

SampleSeries &
Sampler::seriesFor(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto &slot = series_[key];
    if (!slot)
        slot = std::make_shared<SampleSeries>(key, capacity_);
    return *slot;
}

void
Sampler::sampleOnce()
{
    double epoch;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (epochSeconds_ < 0.0)
            epochSeconds_ = monotonicSeconds();
        epoch = epochSeconds_;
    }
    const double t = monotonicSeconds() - epoch;
    const MetricsSnapshot snap = registry_.snapshotAll();
    for (const auto &[name, value] : snap.counters)
        seriesFor("counter:" + name)
            .record(t, static_cast<double>(value));
    for (const auto &[name, value] : snap.gauges)
        seriesFor("gauge:" + name).record(t, value);
}

void
Sampler::loop()
{
    const auto interval = std::chrono::duration<double>(
        [this] {
            std::lock_guard<std::mutex> lock(mtx_);
            return intervalSeconds_;
        }());
    for (;;) {
        sampleOnce();
        std::unique_lock<std::mutex> wake(wakeMtx_);
        if (wakeCv_.wait_for(wake, interval,
                             [this] { return stopRequested_; }))
            return;
    }
}

std::vector<std::shared_ptr<const SampleSeries>>
Sampler::series() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::vector<std::shared_ptr<const SampleSeries>> out;
    out.reserve(series_.size());
    for (const auto &[key, s] : series_)
        out.push_back(s);
    return out;
}

std::size_t
Sampler::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return series_.size();
}

void
Sampler::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    series_.clear();
}

std::string
Sampler::csv() const
{
    std::ostringstream os;
    os << std::setprecision(12) << "key,t_seconds,value\n";
    for (const auto &s : series()) {
        for (const SamplePoint &p : s->points())
            os << s->key() << ',' << p.tSeconds << ',' << p.value
               << '\n';
    }
    return os.str();
}

} // namespace graphabcd
