/**
 * @file
 * ConvergenceRecorder — per-run residual-vs-epoch time series.
 *
 * GraphABCD's headline claim is convergence *rate*: fewer epochs to a
 * fixed residual thanks to block size, Gauss-Southwell selection, and
 * bounded asynchrony (paper Figs. 9-11).  End-of-run totals cannot show
 * that; this recorder holds the curve.  Every engine (serial, async,
 * HARP simulator, GraphMat baseline) appends one ConvergencePoint per
 * trace interval — residual, active vertices, work counters, wall and
 * simulated time — into a ConvergenceSeries owned by the run (the serve
 * layer opens one per job).  Series are retained by the process-wide
 * recorder and dumpable as CSV/JSON, so the paper's convergence figures
 * are reproducible from one service run.
 *
 * Recording happens at trace-interval granularity (roughly once per
 * epoch), never per block, and each series caps its footprint by stride
 * downsampling: when the point buffer fills, every other point is
 * dropped and the recording stride doubles, so an unexpectedly long run
 * degrades resolution instead of growing without bound.
 *
 * Instrumentation sites go through the obs:: facade (obs/obs.hh), which
 * compiles the hooks out under GRAPHABCD_OBS=OFF.
 */

#ifndef GRAPHABCD_OBS_CONVERGENCE_HH
#define GRAPHABCD_OBS_CONVERGENCE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/strided_series.hh"

namespace graphabcd {

/** One sample of a convergence curve. */
struct ConvergencePoint
{
    double epochs = 0.0;      //!< |V|-normalised vertex updates so far
    double residual = 0.0;    //!< L1 value delta over the sample window
    std::uint64_t activeVertices = 0;  //!< vertices moved > tol in window
    std::uint64_t vertexUpdates = 0;   //!< cumulative vertex updates
    std::uint64_t edgeTraversals = 0;  //!< cumulative edge traversals
    double wallSeconds = 0.0;  //!< host time since the run began
    double simSeconds = 0.0;   //!< simulated time (0 for real engines)
};

/**
 * The curve of one run.  record() is mutex-append (trace-interval
 * cadence, cold next to any engine's block loop); recordFinal() lands
 * the run's last sample regardless of stride, so the curve's final row
 * and the engine report agree.
 */
class ConvergenceSeries : public StridedSeries<ConvergencePoint>
{
  public:
    ConvergenceSeries(std::uint64_t id, std::string label,
                      std::size_t capacity = 4096)
        : StridedSeries(capacity), id_(id), label_(std::move(label))
    {
    }

    std::uint64_t id() const { return id_; }
    const std::string &label() const { return label_; }

  private:
    const std::uint64_t id_;
    const std::string label_;
};

/**
 * Process-wide store of convergence series, bounded to the most recent
 * `max_series` runs.  begin() hands a run its series; the recorder
 * keeps a reference for later retrieval (per job id / label) and for
 * the CSV/JSON dumps behind the CONV verb and the /convergence HTTP
 * endpoint.
 */
class ConvergenceRecorder
{
  public:
    /** The process-wide recorder (what CONV and /convergence dump). */
    static ConvergenceRecorder &global();

    explicit ConvergenceRecorder(std::size_t max_series = 64);

    ConvergenceRecorder(const ConvergenceRecorder &) = delete;
    ConvergenceRecorder &operator=(const ConvergenceRecorder &) = delete;

    /** Open (and retain) a new series for one run. */
    std::shared_ptr<ConvergenceSeries> begin(std::string label);

    /** @return retained series, oldest first. */
    std::vector<std::shared_ptr<const ConvergenceSeries>> list() const;

    /** @return the most recent series with this label, or null. */
    std::shared_ptr<const ConvergenceSeries>
    find(const std::string &label) const;

    /** Drop every retained series (live handles stay valid). */
    void clear();

    std::size_t seriesCount() const;

    /**
     * One series as CSV with a header row:
     *   series,label,epochs,residual,active_vertices,vertex_updates,
     *   edge_traversals,wall_seconds,sim_seconds
     */
    static std::string csv(const ConvergenceSeries &series);

    /** Every retained series, one shared header, rows concatenated. */
    std::string csv() const;

    /** Every retained series as one JSON document. */
    std::string json() const;

  private:
    const std::size_t maxSeries_;

    mutable std::mutex mtx_;
    std::deque<std::shared_ptr<ConvergenceSeries>> series_;
    std::uint64_t nextId_ = 1;
};

} // namespace graphabcd

#endif // GRAPHABCD_OBS_CONVERGENCE_HH
