#include "obs/flight.hh"

#if GRAPHABCD_OBS_ENABLED

#include <csignal>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace graphabcd {
namespace obs {

namespace {

/** One latch for the signal path; a handler must never re-enter. */
std::atomic<bool> g_signalDumping{false};

void
flightSignalHandler(int sig)
{
    // Best effort: this allocates and takes mutexes, which strict
    // async-signal-safety forbids — but the process is about to die,
    // and a partial black box beats none.  The latch stops a second
    // fault inside the handler from recursing.
    if (!g_signalDumping.exchange(true)) {
        FlightRecorder::global().dumpIfArmed("fatal signal " +
                                             std::to_string(sig));
    }
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder instance;
    return instance;
}

void
FlightRecorder::arm(std::string default_path)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        armed_ = true;
        path_ = std::move(default_path);
    }
    // The tap runs under the Logger mutex; note() takes only the
    // recorder mutex, and no recorder path logs while holding it, so
    // the lock order Logger -> recorder is acyclic.
    Logger::global().setTap([](LogLevel, const std::string &line) {
        FlightRecorder &self = global();
        std::lock_guard<std::mutex> lock(self.mtx_);
        std::string trimmed = line;
        while (!trimmed.empty() && trimmed.back() == '\n')
            trimmed.pop_back();
        self.logLines_.push_back(std::move(trimmed));
        while (self.logLines_.size() > kMaxLogLines)
            self.logLines_.pop_front();
    });
    setFatalHook(+[](const char *message) {
        global().note("fatal", message);
        global().dumpIfArmed(std::string("fatal: ") + message);
    });
}

void
FlightRecorder::disarm()
{
    setFatalHook(nullptr);
    Logger::global().setTap(nullptr);
    std::lock_guard<std::mutex> lock(mtx_);
    armed_ = false;
    path_.clear();
}

bool
FlightRecorder::armed() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return armed_;
}

void
FlightRecorder::armSignals()
{
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
        std::signal(sig, flightSignalHandler);
}

void
FlightRecorder::note(const char *component, std::string text)
{
    std::string entry = std::string(component) + ": " + std::move(text);
    std::lock_guard<std::mutex> lock(mtx_);
    notes_.push_back(Note{TraceRecorder::nowMicros(), std::move(entry)});
    while (notes_.size() > kMaxNotes)
        notes_.pop_front();
}

std::uint64_t
FlightRecorder::addProvider(std::string name,
                            std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(mtx_);
    const std::uint64_t token = nextToken_++;
    providers_.push_back(
        Provider{token, std::move(name), std::move(provider)});
    return token;
}

void
FlightRecorder::removeProvider(std::uint64_t token)
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (auto it = providers_.begin(); it != providers_.end(); ++it) {
        if (it->token == token) {
            providers_.erase(it);
            return;
        }
    }
}

std::string
FlightRecorder::renderJson(const std::string &reason)
{
    std::deque<Note> notes;
    std::deque<std::string> log_lines;
    std::vector<Provider> providers;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        notes = notes_;
        log_lines = logLines_;
        providers = providers_;
    }

    std::ostringstream os;
    os << "{\n\"reason\":" << jsonQuote(reason)
       << ",\n\"captured_at_micros\":" << TraceRecorder::nowMicros();

    os << ",\n\"notes\":[";
    bool first = true;
    for (const Note &n : notes) {
        os << (first ? "" : ",") << "\n{\"ts_micros\":" << n.tsMicros
           << ",\"text\":" << jsonQuote(n.text) << "}";
        first = false;
    }
    os << "]";

    os << ",\n\"log\":[";
    first = true;
    for (const std::string &line : log_lines) {
        os << (first ? "" : ",") << "\n" << jsonQuote(line);
        first = false;
    }
    os << "]";

    // Providers run here, outside the recorder mutex, so they may take
    // their own locks (the serve provider snapshots under the
    // JobManager mutex).
    os << ",\n\"providers\":{";
    first = true;
    for (const Provider &p : providers) {
        os << (first ? "" : ",") << "\n"
           << jsonQuote(p.name) << ":" << (p.fn ? p.fn() : "null");
        first = false;
    }
    os << "}";

    const MetricsSnapshot snap = MetricsRegistry::global().snapshotAll();
    os << ",\n\"metrics\":{\"counters\":{";
    first = true;
    for (const auto &[name, value] : snap.counters) {
        os << (first ? "" : ",") << jsonQuote(name) << ":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : snap.gauges) {
        os << (first ? "" : ",") << jsonQuote(name) << ":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : snap.histograms) {
        os << (first ? "" : ",") << "\n"
           << jsonQuote(name) << ":{\"count\":" << h.count
           << ",\"sum\":" << h.sum << ",\"mean\":" << h.mean()
           << ",\"min\":" << h.min << ",\"max\":" << h.max
           << ",\"p50\":" << h.quantile(0.5)
           << ",\"p99\":" << h.quantile(0.99);
        if (h.hasExemplar) {
            os << ",\"exemplar\":{\"value\":" << h.exemplarValue
               << ",\"job\":" << h.exemplarJob
               << ",\"span\":" << h.exemplarSpan << "}";
        }
        os << "}";
        first = false;
    }
    os << "}}";

    os << ",\n\"trace\":";
    TraceRecorder::global().writeChromeTrace(os);
    os << "}\n";
    return os.str();
}

bool
FlightRecorder::dump(const std::string &path, const std::string &reason)
{
    if (dumping_.exchange(true))
        return false;   // a dump is in flight; never recurse
    bool ok = false;
    {
        const std::string body = renderJson(reason);
        std::ofstream out(path);
        if (out) {
            out << body;
            ok = static_cast<bool>(out);
        }
    }
    dumping_.store(false);
    if (ok) {
        GRAPHABCD_LOG_WARN("flight", "flight recorder dumped",
                           LOGF("path", path), LOGF("reason", reason));
    } else {
        GRAPHABCD_LOG_ERROR("flight", "flight recorder dump failed",
                            LOGF("path", path), LOGF("reason", reason));
    }
    return ok;
}

bool
FlightRecorder::dumpIfArmed(const std::string &reason)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!armed_ || path_.empty())
            return false;
        path = path_;
    }
    return dump(path, reason);
}

} // namespace obs
} // namespace graphabcd

#endif // GRAPHABCD_OBS_ENABLED
