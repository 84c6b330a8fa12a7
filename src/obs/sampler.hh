/**
 * @file
 * Sampler — a background thread that turns the point-in-time registry
 * into time series.
 *
 * Counters and gauges answer "how much so far"; the questions the
 * paper and the serve layer actually raise — does queue depth spike
 * under admission bursts, does PE utilization sag when the host starves
 * the FPGA, does executor backlog drain — need values *over time*.
 * The sampler snapshots every registered counter and gauge at a fixed
 * interval into one SampleSeries per metric.  Each series is a
 * fixed-capacity buffer with stride downsampling (when full, every
 * other point is dropped and the keep-stride doubles), so a service
 * that runs for days keeps a bounded, progressively coarser history
 * instead of growing without bound.
 *
 * Sampling cost is one registry snapshot per tick — a mutex plus
 * relaxed loads, nothing on any engine hot path — which is why the
 * acceptance bar of < 2% serve-throughput overhead at a 10 ms interval
 * holds.  Histograms are deliberately not sampled: their bucket arrays
 * are large, and dashboards derive rates from the counter series.
 *
 * Series keys are "counter:<name>" / "gauge:<name>" so both kinds can
 * share one namespace in the CSV dump and the /series HTTP endpoint.
 */

#ifndef GRAPHABCD_OBS_SAMPLER_HH
#define GRAPHABCD_OBS_SAMPLER_HH

#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/strided_series.hh"

namespace graphabcd {

class MetricsRegistry;

/** One (time, value) sample of a metric. */
struct SamplePoint
{
    double tSeconds = 0.0;  //!< seconds since the sampler started
    double value = 0.0;
};

/** The history of one metric, stride-downsampled like a
 *  ConvergenceSeries. */
class SampleSeries : public StridedSeries<SamplePoint>
{
  public:
    SampleSeries(std::string key, std::size_t capacity)
        : StridedSeries(capacity), key_(std::move(key))
    {
    }

    void
    record(double t_seconds, double value)
    {
        StridedSeries::record(SamplePoint{t_seconds, value});
    }

    const std::string &key() const { return key_; }

  private:
    const std::string key_;
};

/** Periodic registry snapshotter; one per process in practice. */
class Sampler
{
  public:
    /** The process-wide sampler (what --sample-ms starts). */
    static Sampler &global();

    /** @param capacity points retained per series before downsampling. */
    explicit Sampler(MetricsRegistry &registry,
                     std::size_t capacity = 1024);

    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Start (or restart) the background thread.  Series recorded so
     * far are kept; the time axis keeps counting from the first start.
     * @param interval_seconds clamped to >= 1 ms.
     */
    void start(double interval_seconds);

    /** Stop the thread; series stay readable.  Idempotent. */
    void stop();

    bool running() const;

    /** Take one snapshot right now (also what the thread does). */
    void sampleOnce();

    /** @return all series, sorted by key. */
    std::vector<std::shared_ptr<const SampleSeries>> series() const;

    std::size_t seriesCount() const;

    /** Drop all series (a running thread repopulates them). */
    void clear();

    /** CSV: `key,t_seconds,value` with a header row. */
    std::string csv() const;

  private:
    void loop();
    SampleSeries &seriesFor(const std::string &key);

    MetricsRegistry &registry_;
    const std::size_t capacity_;

    mutable std::mutex mtx_;  //!< series map + thread lifecycle
    std::map<std::string, std::shared_ptr<SampleSeries>> series_;
    std::thread thread_;
    double intervalSeconds_ = 0.0;
    double epochSeconds_ = -1.0;  //!< monotonic time of first start
    bool running_ = false;
    bool stopRequested_ = false;

    std::mutex wakeMtx_;
    std::condition_variable wakeCv_;
};

} // namespace graphabcd

#endif // GRAPHABCD_OBS_SAMPLER_HH
