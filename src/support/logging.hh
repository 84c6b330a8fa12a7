/**
 * @file
 * Error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() for user errors (bad
 * configuration, malformed input) and panic() for internal invariant
 * violations.  Because this is a library rather than a standalone
 * simulator, both raise exceptions instead of terminating the process,
 * so embedding applications and tests can recover.  Status messages
 * and warnings go through the structured logger (obs/log.hh).
 */

#ifndef GRAPHABCD_SUPPORT_LOGGING_HH
#define GRAPHABCD_SUPPORT_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/log.hh"

namespace graphabcd {

/**
 * Base class of all errors raised by the library.
 */
class GraphError : public std::runtime_error
{
  public:
    explicit GraphError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/**
 * Raised by fatal(): the caller supplied an invalid configuration or
 * malformed input.  Equivalent of gem5's fatal().
 */
class FatalError : public GraphError
{
  public:
    explicit FatalError(const std::string &what_arg)
        : GraphError(what_arg)
    {}
};

/**
 * Raised by panic(): an internal invariant was violated, i.e. a bug in
 * the library itself.  Equivalent of gem5's panic().
 */
class PanicError : public GraphError
{
  public:
    explicit PanicError(const std::string &what_arg)
        : GraphError(what_arg)
    {}
};

namespace detail {

/** Concatenate a parameter pack into one string using operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/**
 * Report an unrecoverable *user* error (bad parameters, malformed file).
 * Fires the obs fatal hook (flight-recorder dump) before throwing.
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string message = detail::concat(std::forward<Args>(args)...);
    obs::notifyFatal(message.c_str());
    throw FatalError(message);
}

/**
 * Report an internal invariant violation (a library bug).  Fires the
 * same fatal hook as fatal(): an invariant violation is precisely when
 * the flight recorder's black box is worth capturing.
 * @throws PanicError always.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::string message = detail::concat(std::forward<Args>(args)...);
    obs::notifyFatal(message.c_str());
    throw PanicError(message);
}

} // namespace graphabcd

/**
 * Checked assertion that survives NDEBUG builds.  Use for invariants whose
 * violation indicates a library bug; the failure message names the
 * expression and source location.
 */
#define GRAPHABCD_ASSERT(cond, ...)                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::graphabcd::panic("assertion '", #cond, "' failed at ",       \
                               __FILE__, ":", __LINE__, ": ",              \
                               ##__VA_ARGS__);                             \
        }                                                                  \
    } while (0)

#endif // GRAPHABCD_SUPPORT_LOGGING_HH
