/**
 * @file
 * Job runner — maps a JobRequest onto a concrete (vertex program x
 * engine) instantiation and runs it to completion, plus the
 * fingerprints that key the ResultCache.
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
#include <string>
#include <vector>

#include "graph/partition.hh"
#include "serve/job.hh"

namespace graphabcd {

class Executor;

/** Outcome of one dispatched run. */
struct RunOutcome
{
    std::vector<double> values;
    EngineReport report;
    std::string error;   //!< non-empty when the request was unrunnable

    bool ok() const { return error.empty(); }
};

/**
 * Execute `req` against `g` synchronously on the calling thread.  The
 * engine honours req.options.stop / progress / warmStart.  Unsupported
 * algo/engine combinations return an error outcome (never throw).
 * When `g` was built with a vertex reorder, req.source / warmStart and
 * the returned values are translated at this boundary: callers always
 * speak original vertex ids (DESIGN.md §11).
 * @param executor pool the threaded engine draws workers from; null
 *        keeps req.options.executor (itself defaulting to the
 *        process-wide pool).
 */
RunOutcome runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                           std::shared_ptr<Executor> executor = nullptr);

/** @return whether runAnalyticsJob recognises req.algo and req.engine. */
bool isRunnable(const JobRequest &req, std::string *why = nullptr);

/**
 * @return whether req's inputs make sense on a graph of `num_vertices`:
 * a finite, non-negative tolerance and, for sssp/bfs/ppr, an existing
 * source vertex.  Either mistake would otherwise run to a silently
 * wrong converged=1 answer.
 */
bool inputsValid(const JobRequest &req, VertexId num_vertices,
                 std::string *why = nullptr);

/** Exact-match ResultCache key (see file comment). */
std::uint64_t jobFingerprint(std::uint64_t graph_fingerprint,
                             const JobRequest &req);

/** Fixpoint-family key for warm starting (see file comment). */
std::uint64_t jobFamilyFingerprint(std::uint64_t graph_fingerprint,
                                   const JobRequest &req);

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_RUNNER_HH
