/**
 * @file
 * Wall-clock timing helpers for benchmarks and examples.
 */

#ifndef GRAPHABCD_SUPPORT_TIMER_HH
#define GRAPHABCD_SUPPORT_TIMER_HH

#include <chrono>

namespace graphabcd {

/**
 * Monotonic stopwatch.  start() (or construction) begins a measurement;
 * seconds()/micros() read the elapsed time without stopping it.
 */
class Timer
{
  public:
    Timer() { start(); }

    /** (Re)start the measurement from now. */
    void start() { begin = Clock::now(); }

    /** @return elapsed seconds since start(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - begin).count();
    }

    /** @return elapsed microseconds since start(). */
    double micros() const { return seconds() * 1e6; }

  private:
    using Clock = std::chrono::steady_clock;

    // Every host duration this library reports (EngineReport::seconds,
    // serve-layer job accounting) flows through
    // this class, so pinning the clock here keeps them all immune to
    // wall-clock adjustments (NTP slew, DST, manual changes).
    static_assert(Clock::is_steady,
                  "timing must use a monotonic clock so elapsed "
                  "measurements can never go negative");

    Clock::time_point begin;
};

/**
 * Monotonic timestamp in seconds since an arbitrary process-local
 * epoch.  Use for cross-thread event timestamps (e.g. job queued /
 * started / finished instants) where two readings must subtract to a
 * non-negative duration regardless of wall-clock adjustments.
 */
inline double
monotonicSeconds()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

} // namespace graphabcd

#endif // GRAPHABCD_SUPPORT_TIMER_HH
