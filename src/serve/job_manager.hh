/**
 * @file
 * JobManager — the serve layer's execution core.
 *
 * Threading model (documented in DESIGN.md "Serve layer"):
 *
 *  - submit() runs on the client thread: it resolves the graph handle,
 *    registers the job, consults the ResultCache (an exact hit
 *    completes the job through finishJob without ever queueing), and
 *    admits the job to the tenant-aware
 *    FairShareQueue (serve/qos.hh).  A saturated queue backpressures
 *    the most over-share tenant with QueueFull, displaces the newest
 *    queued job of an over-share tenant (terminal state Shed) to admit
 *    under-share work, and sheds deadline-infeasible submissions
 *    outright (SubmitError::Shed) so doomed clients fail fast.
 *
 *  - A fixed pool of service workers pops jobs in weighted-fair lane
 *    order (priority order within a tenant) and runs the engine
 *    synchronously.  Engines are handed a StopToken (cancel() +
 *    per-job deadline) they poll at block granularity, and a Progress
 *    sink of relaxed atomics they publish into, so status() snapshots
 *    never touch an engine lock.
 *
 *  - One mutex guards the job table, the per-tenant stats (the
 *    service's are their sum) and the warm-start index; it is never
 *    held across an engine run, a partition build, or a queue wait.
 *    The ResultCache and FairShareQueue have their own locks, always
 *    acquired after (never while holding) the manager lock held only
 *    for map/stat updates — no lock-order cycles.
 *
 * Cancellation is cooperative and race-free: cancel() atomically
 * claims a Queued job (the popping worker then skips it) or requests a
 * stop on a Running one; the engine returns with report.stopped and
 * the worker records Cancelled.  Deadlines ride the same token, and
 * the halt cause is attributed by instant (first requestStop() vs the
 * token deadline), not by guessing from the flag.  All writes to a
 * job's result/bookkeeping happen *after* the terminal CAS is won
 * (finishJob's on_win hook), so a losing finisher never leaves state
 * behind on a job someone else terminalised.
 *
 * finishJob is the one terminal path of every job, cache hits
 * included: it counts the outcome, logs it, closes the job's root
 * span, prunes the job table to maxRetainedJobs, and strips the record
 * down to what status()/result() answer from — the frozen report,
 * timestamps, error and (until fetched) the result.  A terminal record
 * pins neither the partition it ran on nor a borrowed warm-start seed.
 */

#ifndef GRAPHABCD_SERVE_JOB_MANAGER_HH
#define GRAPHABCD_SERVE_JOB_MANAGER_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/stop_token.hh"
#include "obs/span.hh"
#include "obs/watchdog.hh"
#include "runtime/executor.hh"
#include "serve/graph_registry.hh"
#include "serve/job.hh"
#include "serve/qos.hh"
#include "serve/result_cache.hh"

namespace graphabcd {

/** Embedded analytics job service over a GraphRegistry. */
class JobManager
{
  public:
    /** Outcome of submit(): a JobId, or the rejection reason. */
    struct Submitted
    {
        JobId id = 0;
        SubmitError error = SubmitError::None;
        std::string reason;   //!< why a BadRequest was refused

        bool ok() const { return id != 0; }
    };

    /**
     * @param registry shared graph store (not owned; must outlive the
     *        manager).
     */
    explicit JobManager(GraphRegistry &registry, ServeConfig config = {});

    /** Stops workers and cancels outstanding jobs. */
    ~JobManager();

    JobManager(const JobManager &) = delete;
    JobManager &operator=(const JobManager &) = delete;

    /**
     * Submit a job.  May complete it immediately (cache hit) or reject
     * it (QueueFull / UnknownGraph / BadRequest / ShuttingDown).
     */
    Submitted submit(JobRequest req);

    /**
     * Request cancellation.  Queued jobs are cancelled immediately;
     * running jobs stop at the engine's next token poll.
     * @return false when the job is unknown or already terminal.
     */
    bool cancel(JobId id);

    /**
     * @return a point-in-time snapshot, or nullopt for unknown ids.  A
     * terminal job's counters come from its final report.
     */
    std::optional<JobStatus> status(JobId id) const;

    /**
     * @return the result once Done, nullptr otherwise.  The job record
     * owns its result only until this first returns it; afterwards the
     * record keeps a weak reference, so a later call still finds the
     * values while the caller, the result cache or a run warm-started
     * from them holds them, and nullptr once none does.  status() is
     * unaffected.
     */
    std::shared_ptr<const JobResult> result(JobId id) const;

    /**
     * Block until the job reaches a terminal state.
     * @param timeout_seconds negative (or 1e9 and more) = wait
     *        forever.
     * @return whether the job is terminal on return.
     */
    bool wait(JobId id, double timeout_seconds = -1.0) const;

    /** Service counters (the sum over tenants) and gauges. */
    ServeStats stats() const;

    /**
     * Per-tenant counters/gauges, one entry per tenant ever seen
     * (including rejected-only tenants).  Gauges (queueDepth/running:
     * the tenant's jobs waiting and executing) are point-in-time;
     * counters are monotonic.
     */
    std::map<std::string, ServeStats> tenantStats() const;

    /**
     * The job's convergence curve (one sample per trace interval),
     * recorded while the engine runs and retained with the job record.
     * Null for unknown ids, cache-hit jobs (nothing ran), and always
     * under GRAPHABCD_OBS=OFF.
     */
    std::shared_ptr<const obs::ConvergenceSeries>
    convergence(JobId id) const;

    /** The result cache (hit counters, capacity). */
    ResultCache &cache() { return cache_; }
    const ResultCache &cache() const { return cache_; }

    /** Reject new work, cancel outstanding jobs, join workers. */
    void shutdown();

  private:
    /** Internal job record; shared by the table and the queue. */
    struct Job
    {
        JobId id = 0;
        /** The request as run; its warm-start seed is dropped once the
         *  job is terminal. */
        JobRequest req;
        /** The partition the job runs on; null once terminal, so a
         *  retained record does not keep a replaced graph alive. */
        std::shared_ptr<const BlockPartition> graph;
        std::uint64_t key = 0;         //!< exact cache fingerprint
        std::uint64_t familyKey = 0;   //!< warm-start fingerprint

        StopSource stop;
        std::shared_ptr<Progress> progress;
        std::shared_ptr<obs::ConvergenceSeries> series;

        /** Root of the job's causal span tree, allocated at submit();
         *  every engine/executor span of this job descends from it. */
        obs::SpanContext traceRoot;

        /** Stall flag, published by the watchdog thread (the single
         *  writer) with release order; stallDiagnosis is written before
         *  the store and is read-only once `stalled` reads true. */
        std::atomic<bool> stalled{false};
        std::string stallDiagnosis;

        std::atomic<JobState> state{JobState::Queued};
        double submittedAt = 0.0;   //!< monotonicSeconds()
        double startedAt = 0.0;
        double finishedAt = 0.0;

        /** Owned until the first result() call hands it out, then only
         *  `fetched` refers to it: retained records do not pin the
         *  values of results their clients already took.  `report`
         *  keeps what status() reads. */
        mutable std::shared_ptr<const JobResult> result;
        mutable std::weak_ptr<const JobResult> fetched;
        std::optional<EngineReport> report;
        std::string error;
        bool cacheHit = false;
        bool warmStarted = false;
    };

    /** Per-tenant accounting, the service's one ledger, plus lazily
     *  resolved obs instruments
     *  (serve.tenant.<name>.{queued,running,completed,shed,wait_us}). */
    struct TenantEntry
    {
        ServeStats stats;
        obs::Gauge *queuedGauge = nullptr;
        obs::Gauge *runningGauge = nullptr;
        obs::Counter *completedCounter = nullptr;
        obs::Counter *shedCounter = nullptr;
        obs::Histogram *waitHist = nullptr;
    };

    void workerLoop();
    void runJob(const std::shared_ptr<Job> &job);

    /**
     * Terminalise a job with CAS `from -> to` under mtx_.  The CAS is
     * what makes finishing race-free: cancel() and a worker can both
     * try to terminalise the same Queued job, and exactly one of them
     * wins and does the bookkeeping (stats, error, timestamps), then
     * drops the record's graph and warm-start seed.
     * @param on_win runs under mtx_ only after the CAS is won — the
     *        single place a finisher may write job->result and other
     *        outcome fields, so the losing side leaves no trace.
     * @return whether this caller won the transition.
     */
    bool finishJob(const std::shared_ptr<Job> &job, JobState from,
                   JobState to, std::string error,
                   const std::function<void()> &on_win = nullptr);

    /**
     * Terminalise a Queued job Done from an exact ResultCache hit
     * (through finishJob, so it is counted and pruned like any job).
     * @return whether the cache held the result; the job is terminal
     *         then, whether this call or a concurrent cancel won.
     */
    bool serveFromCache(const std::shared_ptr<Job> &job);

    /** The tenant's accounting entry, created on first sight (mtx_). */
    TenantEntry &tenantEntryLocked(const std::string &tenant);

    /**
     * Watchdog verdict for one job: publish the diagnosis (single
     * writer, release store), log a structured warning, and — when
     * cancelOnStall — request a cooperative stop so the run
     * terminalises Cancelled with a "stalled: ..." cause.
     */
    void onJobStalled(const std::shared_ptr<Job> &job,
                      const std::string &diagnosis);

    /** Flight-recorder provider: the job table + queue as JSON. */
    std::string flightJson() const;

    /** Push the tenant's queued/running gauges to obs (mtx_ held). */
    void publishTenantGauges(const TenantEntry &entry);

    /**
     * The true halt cause: "deadline exceeded" when the token deadline
     * fired at or before the first requestStop() (or no cancel ever
     * arrived), else "cancelled" — with a " while queued" suffix for
     * jobs that never started.
     */
    static std::string stopCauseError(const Job &job, bool queued);

    GraphRegistry &registry_;
    const ServeConfig cfg_;
    ResultCache cache_;
    FairShareQueue<std::shared_ptr<Job>> queue_;
    std::shared_ptr<Executor> executor_;   //!< engine worker pool

    mutable std::mutex mtx_;   //!< jobs_, warm-start index, tenants_
    mutable std::condition_variable doneCv_;
    std::map<JobId, std::shared_ptr<Job>> jobs_;
    std::unordered_map<std::uint64_t, std::weak_ptr<const JobResult>>
        lastFixpoint_;   //!< familyKey -> most recent converged result
    std::map<std::string, TenantEntry> tenants_;   //!< under mtx_

    std::atomic<JobId> nextId_{1};
    std::atomic<std::size_t> running_{0};
    std::atomic<bool> shutdown_{false};
    std::vector<std::thread> workers_;

    /** Stall watchdog (null unless cfg_.stallWindowSeconds > 0 and obs
     *  is compiled in); jobs are watched for the span of their run. */
    std::unique_ptr<obs::StallWatchdog> watchdog_;
    std::uint64_t flightProviderToken_ = 0;
};

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_JOB_MANAGER_HH
