#include "obs/convergence.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/log.hh"

namespace graphabcd {

// -------------------------------------------------- ConvergenceRecorder

ConvergenceRecorder &
ConvergenceRecorder::global()
{
    static ConvergenceRecorder instance;
    return instance;
}

ConvergenceRecorder::ConvergenceRecorder(std::size_t max_series)
    : maxSeries_(std::max<std::size_t>(1, max_series))
{
}

std::shared_ptr<ConvergenceSeries>
ConvergenceRecorder::begin(std::string label)
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto series = std::make_shared<ConvergenceSeries>(nextId_++,
                                                      std::move(label));
    series_.push_back(series);
    while (series_.size() > maxSeries_)
        series_.pop_front();
    return series;
}

std::vector<std::shared_ptr<const ConvergenceSeries>>
ConvergenceRecorder::list() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return {series_.begin(), series_.end()};
}

std::shared_ptr<const ConvergenceSeries>
ConvergenceRecorder::find(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (auto it = series_.rbegin(); it != series_.rend(); ++it) {
        if ((*it)->label() == label)
            return *it;
    }
    return nullptr;
}

void
ConvergenceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    series_.clear();
}

std::size_t
ConvergenceRecorder::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return series_.size();
}

namespace {

constexpr const char *kCsvHeader =
    "series,label,epochs,residual,active_vertices,vertex_updates,"
    "edge_traversals,wall_seconds,sim_seconds\n";

void
appendRows(std::ostringstream &os, const ConvergenceSeries &series)
{
    for (const ConvergencePoint &p : series.points()) {
        os << series.id() << ',' << series.label() << ',' << p.epochs
           << ',' << p.residual << ',' << p.activeVertices << ','
           << p.vertexUpdates << ',' << p.edgeTraversals << ','
           << p.wallSeconds << ',' << p.simSeconds << '\n';
    }
}

} // namespace

std::string
ConvergenceRecorder::csv(const ConvergenceSeries &series)
{
    std::ostringstream os;
    os << std::setprecision(12) << kCsvHeader;
    appendRows(os, series);
    return os.str();
}

std::string
ConvergenceRecorder::csv() const
{
    std::ostringstream os;
    os << std::setprecision(12) << kCsvHeader;
    for (const auto &series : list())
        appendRows(os, *series);
    return os.str();
}

std::string
ConvergenceRecorder::json() const
{
    std::ostringstream os;
    os << std::setprecision(12) << "{\"series\":[";
    bool first_series = true;
    for (const auto &series : list()) {
        os << (first_series ? "" : ",") << "\n{\"id\":" << series->id()
           << ",\"label\":" << obs::jsonQuote(series->label())
           << ",\"points\":[";
        first_series = false;
        bool first_point = true;
        for (const ConvergencePoint &p : series->points()) {
            os << (first_point ? "" : ",") << "[" << p.epochs << ","
               << p.residual << "," << p.activeVertices << ","
               << p.vertexUpdates << "," << p.edgeTraversals << ","
               << p.wallSeconds << "," << p.simSeconds << "]";
            first_point = false;
        }
        os << "]}";
    }
    os << "\n]}\n";
    return os.str();
}

} // namespace graphabcd
