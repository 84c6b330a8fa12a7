/**
 * @file
 * Leveled structured logger — one line per event, plain or JSON-lines,
 * compiled out under GRAPHABCD_OBS=OFF like the rest of the obs layer.
 *
 * Call sites pass a component, a fixed message, and typed key=value
 * fields; the variable parts of an event ride the fields, never the
 * message string, so log output stays grep- and `jq`-able:
 *
 *   GRAPHABCD_LOG_INFO("serve", "job finished",
 *                      LOGF("job", id), LOGF("state", "done"));
 *
 *   plain:  2026-08-06T12:34:56.789Z INFO  serve: job finished job=3
 *           state=done
 *   json:   {"ts":"...","level":"info","component":"serve",
 *            "msg":"job finished","job":3,"state":"done"}
 *
 * The logger is header-only on purpose: support/logging.hh includes
 * it, and src/support must not link against abcd_obs.  Configuration
 * lives in function-local statics — level and format come from
 * GRAPHABCD_LOG_LEVEL / GRAPHABCD_LOG_FORMAT env vars until a tool
 * overrides them (--log-level / --log-json).  Lines are
 * written to stderr under a mutex (or to a test-injected sink), so
 * concurrent writers never interleave within a line.
 *
 * With GRAPHABCD_OBS_ENABLED=0 the macros expand to `do {} while (0)`
 * — field expressions are never evaluated, matching the facade rule
 * that the OFF build carries zero observability cost.
 */

#ifndef GRAPHABCD_OBS_LOG_HH
#define GRAPHABCD_OBS_LOG_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#ifndef GRAPHABCD_OBS_ENABLED
#define GRAPHABCD_OBS_ENABLED 1
#endif

namespace graphabcd {
namespace obs {

enum class LogLevel : int
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4,
};

/**
 * @return `s` as a JSON string literal, quotes included: `"` and `\`
 * are backslash-escaped and every byte below 0x20 becomes `\u00XX`,
 * so no label, name or message can make a document invalid.  The one
 * escaper every JSON writer of the program uses.
 */
inline std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x",
                          static_cast<unsigned char>(c));
            out += esc;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

/** @return the level for a name like "debug"/"info", or fallback. */
inline LogLevel
parseLogLevel(const char *name, LogLevel fallback = LogLevel::Info)
{
    if (!name)
        return fallback;
    if (std::strcmp(name, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(name, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(name, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(name, "error") == 0)
        return LogLevel::Error;
    if (std::strcmp(name, "off") == 0)
        return LogLevel::Off;
    return fallback;
}

inline const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Off: return "off";
    }
    return "info";
}

/**
 * One key=value pair.  The value is formatted at construction (log
 * statements are cold paths); `quoted` remembers whether JSON output
 * must quote it, so numbers and booleans stay typed for `jq`.
 */
struct LogField
{
    const char *key;
    std::string value;
    bool quoted;

    LogField(const char *k, const char *v) : key(k), value(v), quoted(true)
    {
    }

    LogField(const char *k, const std::string &v)
        : key(k), value(v), quoted(true)
    {
    }

    LogField(const char *k, bool v)
        : key(k), value(v ? "true" : "false"), quoted(false)
    {
    }

    LogField(const char *k, double v) : key(k), quoted(false)
    {
        std::ostringstream os;
        os.precision(6);
        os << v;
        value = os.str();
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    LogField(const char *k, T v)
        : key(k), value(std::to_string(v)), quoted(false)
    {
    }
};

/**
 * The process-wide logger state: minimum level, output format, and
 * sink.  Everything is inline/static so the header stands alone.
 */
class Logger
{
  public:
    static Logger &
    global()
    {
        static Logger instance;
        return instance;
    }

    bool
    enabled(LogLevel level) const
    {
        return static_cast<int>(level) >=
                   level_.load(std::memory_order_relaxed) &&
               level != LogLevel::Off;
    }

    LogLevel
    level() const
    {
        return static_cast<LogLevel>(
            level_.load(std::memory_order_relaxed));
    }

    void
    setLevel(LogLevel level)
    {
        level_.store(static_cast<int>(level), std::memory_order_relaxed);
    }

    bool json() const { return json_.load(std::memory_order_relaxed); }

    void
    setJson(bool on)
    {
        json_.store(on, std::memory_order_relaxed);
    }

    /** Replace stderr with a capture callback (tests); null restores. */
    void
    setSink(std::function<void(const std::string &)> sink)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        sink_ = std::move(sink);
    }

    /**
     * Secondary observer: sees every emitted line *in addition to* the
     * sink/stderr (the FlightRecorder keeps its recent-log window this
     * way).  Runs under the logger mutex — it must not log and must not
     * block; null removes it.
     */
    void
    setTap(std::function<void(LogLevel, const std::string &)> tap)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        tap_ = std::move(tap);
    }

    /** Format one event and emit it as a single line. */
    void
    write(LogLevel level, const char *component, const char *msg,
          const LogField *fields, std::size_t n_fields)
    {
        std::string line = json_.load(std::memory_order_relaxed)
                               ? formatJson(level, component, msg,
                                            fields, n_fields)
                               : formatPlain(level, component, msg,
                                             fields, n_fields);
        line.push_back('\n');
        std::lock_guard<std::mutex> lock(mtx_);
        if (tap_)
            tap_(level, line);
        if (sink_) {
            sink_(line);
        } else {
            std::fwrite(line.data(), 1, line.size(), stderr);
            std::fflush(stderr);
        }
    }

  private:
    Logger()
    {
        setLevel(parseLogLevel(std::getenv("GRAPHABCD_LOG_LEVEL")));
        const char *fmt = std::getenv("GRAPHABCD_LOG_FORMAT");
        setJson(fmt && std::strcmp(fmt, "json") == 0);
    }

    /** ISO-8601 UTC with milliseconds, e.g. 2026-08-06T12:34:56.789Z */
    static std::string
    timestamp()
    {
        std::timespec ts{};
        std::timespec_get(&ts, TIME_UTC);
        std::tm tm{};
        gmtime_r(&ts.tv_sec, &tm);
        char buf[40];
        std::size_t len = std::strftime(buf, sizeof(buf),
                                        "%Y-%m-%dT%H:%M:%S", &tm);
        std::snprintf(buf + len, sizeof(buf) - len, ".%03ldZ",
                      ts.tv_nsec / 1000000);
        return buf;
    }

    static std::string
    formatPlain(LogLevel level, const char *component, const char *msg,
                const LogField *fields, std::size_t n_fields)
    {
        static const char *upper[] = {"DEBUG", "INFO", "WARN", "ERROR"};
        std::string out = timestamp();
        out += ' ';
        out += upper[static_cast<int>(level)];
        out += ' ';
        out += component;
        out += ": ";
        out += msg;
        for (std::size_t i = 0; i < n_fields; i++) {
            out += ' ';
            out += fields[i].key;
            out += '=';
            out += fields[i].value;
        }
        return out;
    }

    static std::string
    formatJson(LogLevel level, const char *component, const char *msg,
               const LogField *fields, std::size_t n_fields)
    {
        std::string out = "{\"ts\":\"";
        out += timestamp();
        out += "\",\"level\":\"";
        out += logLevelName(level);
        out += "\",\"component\":";
        out += jsonQuote(component);
        out += ",\"msg\":";
        out += jsonQuote(msg);
        for (std::size_t i = 0; i < n_fields; i++) {
            out += ',';
            out += jsonQuote(fields[i].key);
            out += ':';
            if (fields[i].quoted)
                out += jsonQuote(fields[i].value);
            else
                out += fields[i].value;
        }
        out += '}';
        return out;
    }

    std::atomic<int> level_{static_cast<int>(LogLevel::Info)};
    std::atomic<bool> json_{false};
    std::mutex mtx_;
    std::function<void(const std::string &)> sink_;
    std::function<void(LogLevel, const std::string &)> tap_;
};

/**
 * Fatal-error hook: a plain function pointer support/logging.hh's
 * fatal() fires just before throwing, so the FlightRecorder can dump
 * its black box while the failing state still exists.  A function
 * pointer (not std::function) keeps this header dependency-free for
 * src/support, which must not link abcd_obs; it is defined in both
 * build modes because fatal() itself survives GRAPHABCD_OBS=OFF —
 * nothing arms it there, so notifyFatal() stays a no-op load.
 */
using FatalHook = void (*)(const char *message);

inline std::atomic<FatalHook> &
fatalHookSlot()
{
    static std::atomic<FatalHook> slot{nullptr};
    return slot;
}

inline void
setFatalHook(FatalHook hook)
{
    fatalHookSlot().store(hook, std::memory_order_release);
}

inline void
notifyFatal(const char *message)
{
    if (FatalHook hook = fatalHookSlot().load(std::memory_order_acquire))
        hook(message);
}

/** Emit one event if `level` clears the logger's threshold. */
template <typename... Fields>
inline void
logAt(LogLevel level, const char *component, const char *msg,
      Fields &&...fields)
{
    Logger &logger = Logger::global();
    if (!logger.enabled(level))
        return;
    if constexpr (sizeof...(Fields) == 0) {
        logger.write(level, component, msg, nullptr, 0);
    } else {
        const LogField arr[] = {std::forward<Fields>(fields)...};
        logger.write(level, component, msg, arr, sizeof...(Fields));
    }
}

} // namespace obs
} // namespace graphabcd

/** Build a LogField; keeps call sites down to LOGF("job", id). */
#define LOGF(key, value) ::graphabcd::obs::LogField((key), (value))

#if GRAPHABCD_OBS_ENABLED

#define GRAPHABCD_LOG_DEBUG(...) \
    ::graphabcd::obs::logAt(::graphabcd::obs::LogLevel::Debug, __VA_ARGS__)
#define GRAPHABCD_LOG_INFO(...) \
    ::graphabcd::obs::logAt(::graphabcd::obs::LogLevel::Info, __VA_ARGS__)
#define GRAPHABCD_LOG_WARN(...) \
    ::graphabcd::obs::logAt(::graphabcd::obs::LogLevel::Warn, __VA_ARGS__)
#define GRAPHABCD_LOG_ERROR(...) \
    ::graphabcd::obs::logAt(::graphabcd::obs::LogLevel::Error, __VA_ARGS__)

#else // !GRAPHABCD_OBS_ENABLED

// Arguments are swallowed unevaluated: the OFF build must not even
// format field values.
#define GRAPHABCD_LOG_DEBUG(...) do { } while (0)
#define GRAPHABCD_LOG_INFO(...) do { } while (0)
#define GRAPHABCD_LOG_WARN(...) do { } while (0)
#define GRAPHABCD_LOG_ERROR(...) do { } while (0)

#endif // GRAPHABCD_OBS_ENABLED

#endif // GRAPHABCD_OBS_LOG_HH
