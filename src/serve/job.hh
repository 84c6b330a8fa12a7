/**
 * @file
 * Job model of the serve layer: what a client submits, what the
 * service reports back, and the service-wide configuration/metrics
 * records.
 *
 * A job is one analytics request — (graph, algorithm, engine, options)
 * — submitted by a *tenant*, with a priority, an optional deadline,
 * and a lifecycle
 *     Queued -> Running -> Done | Cancelled | Failed
 *     Queued -> Shed                 (displaced under queue pressure)
 * observable at any time through JobStatus snapshots.  Submissions the
 * admission queue rejects never become jobs at all (backpressure), and
 * submissions whose deadline is already infeasible are shed at
 * admission (SubmitError::Shed) so the client fails fast.
 */

#ifndef GRAPHABCD_SERVE_JOB_HH
#define GRAPHABCD_SERVE_JOB_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/options.hh"
#include "graph/types.hh"
#include "serve/qos.hh"

namespace graphabcd {

class Executor;

/** Service-wide job identifier; 0 is never a valid id. */
using JobId = std::uint64_t;

/** Lifecycle of a job. */
enum class JobState
{
    Queued,      //!< admitted, waiting for a service worker
    Running,     //!< an engine is executing it
    Done,        //!< finished (from an engine run or the result cache)
    Cancelled,   //!< ended by cancel(), deadline, or service shutdown
    Failed,      //!< the request could not be executed
    Shed,        //!< dropped while Queued to shed fair-share pressure
};

/** @return human-readable name of a JobState. */
const char *to_string(JobState state);

/** @return whether a state is terminal. */
inline bool
isTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Cancelled ||
           state == JobState::Failed || state == JobState::Shed;
}

/** Why a submission was not admitted. */
enum class SubmitError
{
    None,          //!< admitted (or served directly from the cache)
    QueueFull,     //!< admission queue saturated — retry later
    UnknownGraph,  //!< no such name in the GraphRegistry
    BadRequest,    //!< refused by validate() (serve/runner.hh)
    ShuttingDown,  //!< the service is stopping
    Shed,          //!< shed at admission: the estimated queue wait
                   //!< alone would blow the job's deadline
};

/** @return human-readable name of a SubmitError. */
const char *to_string(SubmitError error);

/** One analytics request. */
struct JobRequest
{
    std::string graph;            //!< GraphRegistry name
    std::string algo = "pr";      //!< a row of the runner's table:
                                  //!< pr | ppr | sssp | bfs | cc | lp
    std::string engine = "serial"; //!< serial | async | accum | sim
                                   //!< (serve/runner.hh)
    std::string tenant;           //!< QoS lane; empty = "default".
                                  //!< Never part of the result identity:
                                  //!< cache hits and warm starts are
                                  //!< shared across tenants.
    VertexId source = 0;          //!< sssp / bfs / ppr source vertex
    EngineOptions options;        //!< run knobs (blockSize is taken
                                  //!< from the registered partition)
    double priority = 0.0;        //!< larger runs first
    double timeoutSeconds = 0.0;  //!< from submission; 0 = no deadline
    bool allowCached = true;      //!< serve an identical cached result
    bool allowWarmStart = true;   //!< seed from a cached family fixpoint
};

/** Final output of a job: per-vertex values plus the run accounting. */
struct JobResult
{
    std::vector<double> values;
    EngineReport report;
};

/** Point-in-time view of a job, snapshotable while it runs. */
struct JobStatus
{
    JobId id = 0;
    JobState state = JobState::Queued;
    std::string tenant;
    double priority = 0.0;

    // Live work counters (from the engine's Progress sink while
    // Running; from the final report once terminal).
    double epochs = 0.0;
    std::uint64_t blockUpdates = 0;
    std::uint64_t edgeTraversals = 0;
    std::uint64_t scatterWrites = 0;
    std::uint64_t activationEntries = 0;   //!< activation walk length

    double queuedSeconds = 0.0;   //!< time spent waiting for a worker
    double runSeconds = 0.0;      //!< time spent executing so far

    bool cacheHit = false;        //!< served from the ResultCache
    bool warmStarted = false;     //!< seeded from a cached fixpoint
    bool converged = false;       //!< meaningful once Done
    std::string error;            //!< set when Cancelled/Failed
};

/** Sizing knobs of a JobManager. */
struct ServeConfig
{
    std::uint32_t workers = 2;       //!< service worker threads
    std::size_t queueCapacity = 16;  //!< admission queue bound
    std::size_t cacheCapacity = 64;  //!< ResultCache entries
    double cacheTtlSeconds = 300.0;  //!< ResultCache entry lifetime

    /**
     * Terminal jobs retained for status()/result() queries; beyond
     * this the oldest terminal records are pruned so a long-lived
     * service's job table stays bounded.
     */
    std::size_t maxRetainedJobs = 1024;

    /**
     * Engine worker pool threads.  0 (the default) shares the
     * process-wide pool (Executor::shared(), sized to the hardware);
     * > 0 gives this service a private pool of that size.  Either
     * way the service's total thread count is `workers` service
     * threads + the pool — engines never spawn threads per job.
     */
    std::uint32_t poolThreads = 0;

    /**
     * Inject a specific pool (e.g. one shared with another embedded
     * service).  Non-null overrides poolThreads.
     */
    std::shared_ptr<Executor> executor;

    /** Fair-share parameters of tenants not listed in tenantQos. */
    TenantQos defaultQos;

    /** Per-tenant weight/quota overrides, keyed by tenant name. */
    std::map<std::string, TenantQos> tenantQos;

    /** Shed-at-admission jobs whose estimated queue wait alone would
     *  blow their deadline (see FairShareQueue). */
    bool shedOnDeadline = true;

    /** Seed for the deadline-shed service-time estimate; 0 disables
     *  shedding until the first measured run. */
    double initialServiceEstimateSeconds = 0.0;

    /**
     * Stall watchdog: a Running job whose progress counters stay flat
     * for this many seconds is flagged (structured warning, the
     * serve.jobs.stalled gauge, a flight-recorder dump when armed).
     * 0 (the default) disables the watchdog.  No-op under
     * GRAPHABCD_OBS=OFF.
     */
    double stallWindowSeconds = 0.0;

    /** Watchdog poll period (seconds). */
    double stallCheckSeconds = 0.25;

    /**
     * Escalate a flagged stall to cancellation: the watchdog requests a
     * cooperative stop and the job terminalises Cancelled with a
     * "stalled: ..." diagnosis instead of wedging a worker forever.
     */
    bool cancelOnStall = false;
};

/** Monotonic counters plus instantaneous gauges, of the whole service
 *  or of one tenant (JobManager::tenantStats). */
struct ServeStats
{
    std::uint64_t submitted = 0;   //!< submit() calls
    std::uint64_t rejected = 0;    //!< not admitted (any SubmitError)
    std::uint64_t completed = 0;   //!< reached Done
    std::uint64_t cancelled = 0;   //!< reached Cancelled
    std::uint64_t failed = 0;      //!< reached Failed
    std::uint64_t shed = 0;        //!< queued jobs displaced to Shed
    std::uint64_t shedAdmission = 0; //!< submissions shed at admission
                                     //!< (also counted in rejected)
    std::uint64_t cacheHits = 0;   //!< jobs served from the ResultCache
    std::uint64_t warmStarts = 0;  //!< jobs seeded from a cached fixpoint
    std::size_t queueDepth = 0;    //!< gauge: jobs waiting
    std::size_t running = 0;       //!< gauge: jobs executing now
};

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_JOB_HH
