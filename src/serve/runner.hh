/**
 * @file
 * Job runner — the one place that maps names to code: one table row per
 * served algorithm and one engine dispatch turn a JobRequest into a
 * (vertex program x engine) instantiation and run it.  Eligibility is
 * a compile-time trait of the program (`accum` needs Accumulable,
 * `async` a lock-free Value).  The same dispatch is the one request
 * check: validate() answers from it, every run through it refuses what
 * validate() refuses, and serve, the CLI and the tests all enumerate
 * the same table.  Also here: the fingerprints that key the
 * ResultCache.
 *
 * Two fingerprints per job:
 *
 *  - jobFingerprint: graph identity + algorithm + parameters + every
 *    semantic EngineOptions field.  Exact-match cache key: equal
 *    fingerprints mean the runs are interchangeable.  Serve-layer
 *    hooks (stop token, progress sink, warm start) are deliberately
 *    excluded — they change how a run is observed, not what it
 *    converges to.
 *
 *  - jobFamilyFingerprint: graph identity + algorithm + parameters
 *    only.  All members of a family share a fixpoint, so a cached
 *    result from one member is a valid warm start for another run
 *    with different engine options.
 */

#ifndef GRAPHABCD_SERVE_RUNNER_HH
#define GRAPHABCD_SERVE_RUNNER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/partition.hh"
#include "harp/config.hh"
#include "harp/report.hh"
#include "serve/job.hh"

namespace graphabcd {

class Executor;

/** Outcome of one dispatched run. */
struct RunOutcome
{
    std::vector<double> values;
    EngineReport report;
    std::optional<SimReport> sim;   //!< engine=sim: simulated-time report
    std::string error;   //!< non-empty when the request was unrunnable

    bool ok() const { return error.empty(); }
};

/** One served algorithm: a row of the runner's table. */
struct AlgoInfo
{
    std::string_view name;     //!< JobRequest::algo spelling
    bool usesSource;           //!< fixpoint depends on JobRequest::source
    bool valuesAreVertexIds;   //!< labels (cc, lp): a reorder maps them
    bool symmetricInput;       //!< meant for a symmetrized graph
    const char *valueName;     //!< what one value means ("rank", ...)
    /** validate() for a request of this algorithm. */
    bool (*validate)(const JobRequest &req, const BlockPartition *g,
                     std::string *why);
    /** Run req on g in internal vertex ids. */
    RunOutcome (*run)(const BlockPartition &g, const JobRequest &req,
                      const HarpConfig &harp);
};

/** @return the table row of a served algorithm, or null. */
const AlgoInfo *findAlgo(std::string_view name);

/** @return every served algorithm, in table order. */
std::span<const AlgoInfo> servedAlgos();

/** @return every engine name the dispatch knows. */
std::vector<std::string> engineNames();

/**
 * Execute `req` against `g` synchronously on the calling thread.  The
 * engine honours req.options.stop / progress / warmStart.  A request
 * validate() refuses returns an error outcome with its reason and runs
 * no engine (never throws).
 * When `g` was built with a vertex reorder, req.source / warmStart and
 * the returned values are translated at this boundary: callers always
 * speak original vertex ids (DESIGN.md §11).
 * @param executor pool the threaded engine draws workers from; null
 *        keeps req.options.executor (itself defaulting to the
 *        process-wide pool).
 * @param harp simulated machine for engine=sim (its topology bytes per
 *        edge are always taken from `g`).
 */
RunOutcome runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                           std::shared_ptr<Executor> executor = nullptr,
                           const HarpConfig &harp = {});

/**
 * Run `program` on req.engine through the same dispatch, in internal
 * vertex ids: for the CLI-only KCoreProgram and ColoringProgram (the
 * instantiations), which have no request form.  Every run passes
 * through here: it refuses, with the reason in RunOutcome::error, what
 * validate() would refuse for `program`'s type on `g`.
 */
template <typename Program>
RunOutcome runProgram(const BlockPartition &g, const Program &program,
                      const JobRequest &req, const HarpConfig &harp = {});

/**
 * The one check of a job request; serve, the CLI and every run call
 * it.  @return whether req names a served algorithm and an engine that
 * runs it in req.options.mode, with a finite non-negative tolerance, a
 * positive epoch cap, at least one thread, a finite priority and a
 * finite non-negative timeout.  With a graph it also checks, for the
 * algorithms that read them, that the source is a vertex of `g` and
 * that its edge weights are finite and non-negative.  Each mistake
 * would otherwise run to a silently wrong or empty answer.
 * @param g the graph the request will run on, or null for the checks
 *        that need only the request.
 * @param why set to the reason when the request is refused.
 */
bool validate(const JobRequest &req, const BlockPartition *g,
              std::string *why = nullptr);

/** Exact-match ResultCache key (see file comment). */
std::uint64_t jobFingerprint(std::uint64_t graph_fingerprint,
                             const JobRequest &req);

/** Fixpoint-family key for warm starting (see file comment). */
std::uint64_t jobFamilyFingerprint(std::uint64_t graph_fingerprint,
                                   const JobRequest &req);

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_RUNNER_HH
