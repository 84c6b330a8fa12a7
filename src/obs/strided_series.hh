/**
 * @file
 * StridedSeries — a bounded, stride-downsampled history of samples,
 * shared by the metric sampler (SampleSeries) and the convergence
 * curves (ConvergenceSeries).
 *
 * record() keeps every stride-th call; when the buffer is full, every
 * other kept point is dropped and the stride doubles, so a long run
 * keeps a bounded, progressively coarser history instead of growing
 * without bound.  All members lock one mutex, so readers never see a
 * partial sample.
 */

#ifndef GRAPHABCD_OBS_STRIDED_SERIES_HH
#define GRAPHABCD_OBS_STRIDED_SERIES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace graphabcd {

template <typename Point>
class StridedSeries
{
  public:
    explicit StridedSeries(std::size_t capacity)
        : capacity_(std::max<std::size_t>(2, capacity))
    {
    }

    StridedSeries(const StridedSeries &) = delete;
    StridedSeries &operator=(const StridedSeries &) = delete;

    /** Append one sample (downsampled once the series is full). */
    void
    record(const Point &point)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (tick_++ % stride_ != 0)
            return;
        appendLocked(point);
    }

    /** Append a sample that must land, bypassing the stride filter. */
    void
    recordFinal(const Point &point)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        appendLocked(point);
    }

    /** @return a consistent copy of the recorded points. */
    std::vector<Point>
    points() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return points_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return points_.size();
    }

    /** @return the last recorded point (all-zero when empty). */
    Point
    back() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return points_.empty() ? Point{} : points_.back();
    }

  private:
    void
    appendLocked(const Point &point)
    {
        if (points_.size() == capacity_) {
            std::size_t keep = 0;
            for (std::size_t i = 0; i < points_.size(); i += 2)
                points_[keep++] = points_[i];
            points_.resize(keep);
            stride_ *= 2;
        }
        points_.push_back(point);
    }

    const std::size_t capacity_;

    mutable std::mutex mtx_;
    std::vector<Point> points_;
    std::uint64_t tick_ = 0;    //!< record() calls seen
    std::uint64_t stride_ = 1;  //!< keep every stride_-th call
};

} // namespace graphabcd

#endif // GRAPHABCD_OBS_STRIDED_SERIES_HH
