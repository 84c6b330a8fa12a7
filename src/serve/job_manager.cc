#include "serve/job_manager.hh"

#include <chrono>
#include <sstream>

#include "obs/log.hh"
#include "obs/obs.hh"
#include "serve/runner.hh"
#include "support/timer.hh"

namespace graphabcd {

const char *
to_string(JobState state)
{
    switch (state) {
      case JobState::Queued:    return "queued";
      case JobState::Running:   return "running";
      case JobState::Done:      return "done";
      case JobState::Cancelled: return "cancelled";
      case JobState::Failed:    return "failed";
      case JobState::Shed:      return "shed";
    }
    return "?";
}

const char *
to_string(SubmitError error)
{
    switch (error) {
      case SubmitError::None:         return "None";
      case SubmitError::QueueFull:    return "QueueFull";
      case SubmitError::UnknownGraph: return "UnknownGraph";
      case SubmitError::BadRequest:   return "BadRequest";
      case SubmitError::ShuttingDown: return "ShuttingDown";
      case SubmitError::Shed:         return "Shed";
    }
    return "?";
}

namespace {

/** ServeConfig -> the admission queue's sizing/policy record. */
QosConfig
makeQosConfig(const ServeConfig &cfg)
{
    QosConfig qos;
    qos.capacity = cfg.queueCapacity;
    qos.workers = std::max(1u, cfg.workers);
    qos.shedOnDeadline = cfg.shedOnDeadline;
    qos.initialServiceSeconds = cfg.initialServiceEstimateSeconds;
    qos.defaults = cfg.defaultQos;
    qos.tenants = cfg.tenantQos;
    return qos;
}

} // namespace

JobManager::JobManager(GraphRegistry &registry, ServeConfig config)
    : registry_(registry), cfg_(config),
      cache_(config.cacheCapacity, config.cacheTtlSeconds),
      queue_(makeQosConfig(config))
{
    queue_.attachDepthGauge(&obs::gauge("serve.queue_depth"));
    queue_.attachWaitHistogram(
        &obs::histogram("serve.queue_wait_us", obs::latencyBucketsUs()));
    // One engine worker pool for the whole service: concurrent jobs
    // share its fixed threads (bounded per-job participation) instead
    // of each spawning options.numThreads of their own.
    if (cfg_.executor)
        executor_ = cfg_.executor;
    else if (cfg_.poolThreads > 0)
        executor_ = std::make_shared<Executor>(cfg_.poolThreads);
    else
        executor_ = Executor::shared();
    workers_.reserve(cfg_.workers);
    for (std::uint32_t i = 0; i < std::max(1u, cfg_.workers); i++)
        workers_.emplace_back([this] { workerLoop(); });
    if constexpr (obs::kEnabled) {
        if (cfg_.stallWindowSeconds > 0.0) {
            obs::StallWatchdog::Config wd;
            wd.windowSeconds = cfg_.stallWindowSeconds;
            wd.checkSeconds = cfg_.stallCheckSeconds;
            watchdog_ = std::make_unique<obs::StallWatchdog>(wd);
            watchdog_->start();
        }
        // When a flight dump fires (fatal, signal, stall, DUMP verb),
        // include the live job table; removed again in shutdown().
        flightProviderToken_ = obs::flightAddProvider(
            "serve", [this] { return flightJson(); });
    }
    GRAPHABCD_LOG_INFO("serve", "job manager started",
                       LOGF("workers", std::max(1u, cfg_.workers)),
                       LOGF("queue_capacity", cfg_.queueCapacity),
                       LOGF("pool_threads", executor_->size()));
}

JobManager::~JobManager()
{
    shutdown();
}

JobManager::Submitted
JobManager::submit(JobRequest req)
{
    // Every job lives in some QoS lane; anonymous submitters share one.
    if (req.tenant.empty())
        req.tenant = "default";

    // Pre-admission rejections (nothing was registered yet).  Copies,
    // not references: req may have been moved into the job record.
    auto reject = [this, tenant = req.tenant, graph_name = req.graph,
                   algo = req.algo](SubmitError error,
                                    std::string detail = {}) {
        GRAPHABCD_LOG_WARN("serve", "job rejected",
                           LOGF("reason", to_string(error)),
                           LOGF("detail", detail),
                           LOGF("tenant", tenant),
                           LOGF("graph", graph_name),
                           LOGF("algo", algo));
        std::lock_guard<std::mutex> lock(mtx_);
        stats_.submitted++;
        stats_.rejected++;
        TenantEntry &entry = tenantEntryLocked(tenant);
        entry.stats.submitted++;
        entry.stats.rejected++;
        return Submitted{0, error, std::move(detail)};
    };

    if (shutdown_.load(std::memory_order_acquire))
        return reject(SubmitError::ShuttingDown);
    std::string why;
    if (!isRunnable(req, &why))
        return reject(SubmitError::BadRequest, why);
    auto graph = registry_.get(req.graph);
    if (!graph)
        return reject(SubmitError::UnknownGraph);
    if (!inputsValid(req, *graph, &why))
        return reject(SubmitError::BadRequest, why);

    // Normalise: the partition's geometry is fixed at LOAD time, and
    // the fingerprint must reflect the geometry actually run.
    req.options.blockSize = graph->blockSize();

    auto job = std::make_shared<Job>();
    job->id = nextId_.fetch_add(1, std::memory_order_relaxed);
    job->graph = std::move(graph);
    const std::uint64_t graph_fp = registry_.fingerprint(req.graph);
    job->key = jobFingerprint(graph_fp, req);
    job->familyKey = jobFamilyFingerprint(graph_fp, req);
    job->progress = std::make_shared<Progress>();
    job->submittedAt = monotonicSeconds();

    // Allocate the root of the job's causal span tree here, at
    // submission: queue wait, the run envelope and executor tasks all
    // hang off this context.
    if constexpr (obs::kEnabled) {
        job->traceRoot = obs::SpanContext{job->id, obs::nextSpanId(), 0};
        obs::instantSpan("serve.submit", job->traceRoot);
    }

    // Arm the cooperative stop: cancel() + optional deadline measured
    // from submission, so time spent queued counts against the budget.
    StopToken token = job->stop.token();
    if (req.timeoutSeconds > 0.0)
        token = token.withDeadline(req.timeoutSeconds);
    req.options.stop = token;
    req.options.progress = job->progress;
    job->req = std::move(req);

    // Pre-register the job *before* queue admission: the instant
    // tryPush succeeds a worker may pop and claim it, and the claim's
    // guarded queued-- must observe this queued++ — registering after
    // the push loses the decrement and pins the gauge high forever.
    {
        std::lock_guard<std::mutex> lock(mtx_);
        stats_.submitted++;
        TenantEntry &entry = tenantEntryLocked(job->req.tenant);
        entry.stats.submitted++;
        entry.stats.queued++;
        publishTenantGauges(entry);
        jobs_.emplace(job->id, job);
    }

    // Fast path: an identical job already converged — answer from the
    // cache without consuming a queue slot or a worker.
    if (serveFromCache(job))
        return Submitted{job->id, SubmitError::None, {}};

    // Deadlines are measured from submission on the same clock the
    // queue uses for its wait estimate, so admission can tell whether
    // the job could plausibly still start in time.
    const double deadline_at = job->req.timeoutSeconds > 0.0
                                   ? job->submittedAt +
                                         job->req.timeoutSeconds
                                   : 0.0;
    auto pushed = queue_.tryPush(job, job->req.tenant,
                                 job->req.priority, deadline_at);
    if (pushed.outcome != AdmitOutcome::Admitted) {
        const SubmitError error =
            pushed.outcome == AdmitOutcome::Shed
                ? SubmitError::Shed
                : (shutdown_.load(std::memory_order_acquire)
                       ? SubmitError::ShuttingDown
                       : SubmitError::QueueFull);
        GRAPHABCD_LOG_WARN("serve", "job rejected",
                           LOGF("reason", to_string(error)),
                           LOGF("tenant", job->req.tenant),
                           LOGF("graph", job->req.graph),
                           LOGF("algo", job->req.algo));
        std::lock_guard<std::mutex> lock(mtx_);
        jobs_.erase(job->id);
        // Every state transition happens under mtx_, so the state is
        // stable here.  A job no longer Queued was claimed (and fully
        // accounted) by a concurrent shutdown() sweep — re-accounting
        // it as a rejection would double-book it.
        if (job->state.load(std::memory_order_acquire) ==
            JobState::Queued) {
            stats_.rejected++;
            TenantEntry &entry = tenantEntryLocked(job->req.tenant);
            entry.stats.rejected++;
            if (entry.stats.queued > 0)
                entry.stats.queued--;
            if (error == SubmitError::Shed) {
                stats_.shedAdmission++;
                entry.stats.shedAdmission++;
                entry.shedCounter->add(1);
            }
            publishTenantGauges(entry);
        }
        return Submitted{0, error, {}};
    }

    GRAPHABCD_LOG_DEBUG("serve", "job admitted", LOGF("job", job->id),
                        LOGF("tenant", job->req.tenant),
                        LOGF("graph", job->req.graph),
                        LOGF("algo", job->req.algo),
                        LOGF("engine", job->req.engine));

    // Admission may have displaced other tenants' newest queued work to
    // make room (fair-share pressure shedding).  Terminalise each
    // victim outside mtx_; a concurrent cancel() may win the CAS, in
    // which case the victim is already accounted for.
    for (auto &victim : pushed.shed) {
        finishJob(victim, JobState::Queued, JobState::Shed,
                  "shed: displaced by fair-share pressure");
    }
    return Submitted{job->id, SubmitError::None, {}};
}

void
JobManager::workerLoop()
{
    std::string tenant;
    while (auto popped = queue_.pop(&tenant)) {
        std::shared_ptr<Job> job = std::move(*popped);
        runJob(job);
        // Return the tenant's in-flight slot on *every* path (run,
        // skip, cancel), or its quota would leak and starve the lane.
        queue_.release(tenant);
    }
}

void
JobManager::runJob(const std::shared_ptr<Job> &job)
{
    // cancel() may have claimed the job while it was queued.
    if (job->state.load(std::memory_order_acquire) != JobState::Queued)
        return;
    if (job->req.options.stop.stopRequested()) {
        // CAS: cancel() may terminalise the job concurrently, and
        // only the winner may count it (else stats_.cancelled is
        // double-counted and the error double-written).
        finishJob(job, JobState::Queued, JobState::Cancelled,
                  stopCauseError(*job, /*queued=*/true));
        return;
    }

    // Re-check the cache: an identical job may have converged while
    // this one sat in the queue.
    if (serveFromCache(job))
        return;

    {
        std::lock_guard<std::mutex> lock(mtx_);
        // Claim Queued -> Running; cancel() may have claimed the job
        // between the worker's pop and this point.  All non-atomic Job
        // fields are guarded by mtx_ once the job is published in
        // jobs_, and a Running job is terminalised only by this worker,
        // so the run below may read job->graph and job->req unlocked.
        // The claim is the one place a starting job's startedAt is
        // stamped (terminal paths only backfill a still-zero stamp), so
        // queue-wait and run-time accounting stay monotonic:
        //   submittedAt <= startedAt <= finishedAt.
        JobState expected = JobState::Queued;
        if (!job->state.compare_exchange_strong(expected,
                                                JobState::Running))
            return;
        job->startedAt = monotonicSeconds();
        TenantEntry &entry = tenantEntryLocked(job->req.tenant);

        // Warm start: a converged result from the same fixpoint family
        // (same graph/algo/params, any engine options) seeds this run.
        // The family key deliberately ignores the tenant: one tenant's
        // converged fixpoint legitimately warms another's run of the
        // same family (the values are a function of the request, not of
        // who asked).
        if (job->req.allowWarmStart) {
            auto it = lastFixpoint_.find(job->familyKey);
            std::shared_ptr<const JobResult> seed =
                it == lastFixpoint_.end() ? nullptr : it->second.lock();
            if (seed && seed->values.size() == job->graph->numVertices()) {
                // Aliasing shared_ptr: keeps the whole JobResult alive,
                // points at its value vector — no copy.
                job->req.options.warmStart =
                    std::shared_ptr<const std::vector<double>>(
                        seed, &seed->values);
                job->warmStarted = true;
                stats_.warmStarts++;
                entry.stats.warmStarts++;
            }
        }

        if (entry.stats.queued > 0)
            entry.stats.queued--;
        entry.stats.running++;
        publishTenantGauges(entry);
        if constexpr (obs::kEnabled) {
            const double wait_us =
                (job->startedAt - job->submittedAt) * 1e6;
            if (entry.waitHist) {
                // Exemplar: the latest wait sample carries the job's
                // root span id, so a histogram outlier links straight
                // into its trace tree.
                entry.waitHist->recordExemplar(wait_us, job->id,
                                               job->traceRoot.span);
            }
            // The queue wait as a retroactive span under the root:
            // the tree shows submit -> claim as its own slice.
            obs::completeSpan(
                "serve.queue_wait", job->submittedAt * 1e6, wait_us,
                obs::SpanContext{job->id, obs::nextSpanId(),
                                 job->traceRoot.span});
        }
        // Open this run's convergence curve in the process-wide
        // recorder.  The sink is a serve-layer hook (like stop and
        // progress), so the cache fingerprint is unaffected.
        if constexpr (obs::kEnabled) {
            job->series = obs::beginConvergence(
                "job" + std::to_string(job->id) + ":" + job->req.graph +
                "/" + job->req.algo + "/" + job->req.engine);
            job->req.options.convergence = job->series;
        }
    }
    running_.fetch_add(1, std::memory_order_relaxed);

    // Watch the run for flat progress.  The progress closure sums the
    // engine's relaxed counters (lock-free, as the watchdog requires);
    // the stall closure owns a job reference so a flagged job outlives
    // any concurrent table pruning.
    if constexpr (obs::kEnabled) {
        if (watchdog_) {
            std::shared_ptr<Progress> progress = job->progress;
            watchdog_->watch(
                job->id,
                "job " + std::to_string(job->id) + " " +
                    job->req.graph + "/" + job->req.algo + "/" +
                    job->req.engine,
                [progress] {
                    return progress->vertexUpdates.load(
                               std::memory_order_relaxed) +
                           progress->blockUpdates.load(
                               std::memory_order_relaxed) +
                           progress->edgeTraversals.load(
                               std::memory_order_relaxed) +
                           progress->scatterWrites.load(
                               std::memory_order_relaxed);
                },
                [this, job](const std::string &diagnosis) {
                    onJobStalled(job, diagnosis);
                });
        }
    }

    RunOutcome outcome;
    Timer run_timer;
    {
        // Adopt the job's root context on this worker thread and open
        // the run span under it; every engine epoch and executor task
        // recorded below nests into the same tree.
        obs::SpanScope adopt(job->traceRoot);
        obs::Span span("serve.run", job->id);
        outcome = runAnalyticsJob(*job->graph, job->req, executor_);
    }

    if constexpr (obs::kEnabled) {
        if (watchdog_)
            watchdog_->unwatch(job->id);
        obs::histogram("serve.job_run_us", obs::latencyBucketsUs())
            .recordExemplar(run_timer.micros(), job->id,
                            job->traceRoot.span);
    }

    running_.fetch_sub(1, std::memory_order_relaxed);

    if (!outcome.ok()) {
        finishJob(job, JobState::Running, JobState::Failed,
                  std::move(outcome.error));
        return;
    }
    if (outcome.report.stopped) {
        // The engine halted through the StopToken, which fires for
        // both cancel() and the per-job deadline; attribute the true
        // cause by which instant came first, not by guessing from the
        // flag (a deadline also rides the token).
        finishJob(job, JobState::Running, JobState::Cancelled,
                  stopCauseError(*job, /*queued=*/false));
        return;
    }

    // Feed the admission-time deadline estimator with what jobs
    // actually cost; only measured runs count (cache hits are ~free
    // and would drag the estimate toward zero).
    queue_.recordServiceSeconds(outcome.report.seconds);

    auto result = std::make_shared<JobResult>();
    result->values = std::move(outcome.values);
    result->report = outcome.report;
    cache_.put(job->key, result);
    finishJob(job, JobState::Running, JobState::Done, "",
              [this, &job, &result] {
                  job->report = result->report;
                  job->result = result;
                  // The index holds weak references: drop the entries
                  // whose fixpoints nothing holds any more, so it stays
                  // as small as the results still alive.
                  std::erase_if(lastFixpoint_, [](const auto &entry) {
                      return entry.second.expired();
                  });
                  lastFixpoint_[job->familyKey] = std::move(result);
              });
}

bool
JobManager::serveFromCache(const std::shared_ptr<Job> &job)
{
    if (!job->req.allowCached)
        return false;
    std::shared_ptr<const JobResult> cached = cache_.get(job->key);
    if (!cached)
        return false;
    // The outcome fields are written only inside the on-win hook: a
    // concurrent cancel() that wins the Queued -> Done race must not
    // find a result hanging off its Cancelled job.
    finishJob(job, JobState::Queued, JobState::Done, "",
              [this, &job, &cached] {
                  job->cacheHit = true;
                  job->report = cached->report;
                  job->result = std::move(cached);
                  stats_.cacheHits++;
                  tenantEntryLocked(job->req.tenant).stats.cacheHits++;
              });
    return true;
}

bool
JobManager::finishJob(const std::shared_ptr<Job> &job, JobState from,
                      JobState to, std::string error,
                      const std::function<void()> &on_win)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        JobState expected = from;
        if (!job->state.compare_exchange_strong(expected, to,
                                                std::memory_order_acq_rel))
            return false;   // lost to a concurrent transition
        if (on_win)
            on_win();
        // A terminal record keeps only what status()/result() answer
        // from: the partition it ran on and a borrowed warm-start seed
        // go, so a retained record pins neither a replaced graph nor
        // an old fixpoint.
        job->graph.reset();
        job->req.options.warmStart.reset();
        job->error = std::move(error);
        job->finishedAt = monotonicSeconds();
        if (job->startedAt == 0.0)
            job->startedAt = job->finishedAt;
        TenantEntry &entry = tenantEntryLocked(job->req.tenant);
        if (from == JobState::Queued && entry.stats.queued > 0)
            entry.stats.queued--;
        if (from == JobState::Running && entry.stats.running > 0)
            entry.stats.running--;
        switch (to) {
          case JobState::Done:
            stats_.completed++;
            entry.stats.completed++;
            entry.completedCounter->add(1);
            break;
          case JobState::Cancelled:
            stats_.cancelled++;
            entry.stats.cancelled++;
            break;
          case JobState::Failed:
            stats_.failed++;
            entry.stats.failed++;
            break;
          case JobState::Shed:
            stats_.shed++;
            entry.stats.shed++;
            entry.shedCounter->add(1);
            break;
          default: break;
        }
        publishTenantGauges(entry);
        // Bound the job table: prune the oldest terminal records
        // (JobIds are monotonic, so map order is submission order).
        if (cfg_.maxRetainedJobs > 0) {
            for (auto it = jobs_.begin();
                 jobs_.size() > cfg_.maxRetainedJobs &&
                 it != jobs_.end();) {
                if (isTerminal(it->second->state.load(
                        std::memory_order_acquire)))
                    it = jobs_.erase(it);
                else
                    ++it;
            }
        }
    }
    // Close the job's root span: the whole submit -> terminal envelope
    // as one top-level slice of its tree.  Recorded *before* waking
    // waiters so a WAIT-then-TRACE client always sees the root.  Safe
    // without mtx_ — only the CAS winner (us) ever writes finishedAt.
    if constexpr (obs::kEnabled) {
        if (job->traceRoot.valid()) {
            obs::completeSpan("serve.job", job->submittedAt * 1e6,
                              (job->finishedAt - job->submittedAt) * 1e6,
                              job->traceRoot);
        }
    }
    doneCv_.notify_all();
    GRAPHABCD_LOG_INFO("serve", "job finished", LOGF("job", job->id),
                       LOGF("state", to_string(to)),
                       LOGF("cache_hit", job->cacheHit),
                       LOGF("error", job->error));
    return true;
}

bool
JobManager::cancel(JobId id)
{
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        job = it->second;
    }
    JobState state = job->state.load(std::memory_order_acquire);
    if (isTerminal(state))
        return false;
    job->stop.requestStop();
    // Claim a queued job outright so it never starts; the popping
    // worker sees a non-Queued state and drops its queue entry.  The
    // CAS inside finishJob arbitrates against that worker, so exactly
    // one side records the cancellation.  The cause still goes through
    // stopCauseError: if the job's deadline had already fired before
    // this cancel arrived, "deadline exceeded" is the truth.
    finishJob(job, JobState::Queued, JobState::Cancelled,
              stopCauseError(*job, /*queued=*/true));
    // Running jobs finish through the worker when the token fires.
    return true;
}

std::string
JobManager::stopCauseError(const Job &job, bool queued)
{
    // A watchdog-escalated stop is its own cause: the acquire load
    // pairs with onJobStalled's release store, so the diagnosis string
    // is safely readable once the flag is seen.
    if (job.stalled.load(std::memory_order_acquire))
        return "stalled: " + job.stallDiagnosis;
    const StopToken &token = job.req.options.stop;
    const double requested_at = job.stop.requestStopAtSeconds();
    // Both instants are on the raw steady-clock scale (stop_token.hh).
    // An expired deadline that predates the first cancel request — or
    // that fired with no cancel request at all — is the true cause.
    const bool deadline_first =
        token.deadlineExpired() &&
        (requested_at == 0.0 ||
         token.deadlineAtSeconds() <= requested_at);
    if (deadline_first)
        return queued ? "deadline exceeded while queued"
                      : "deadline exceeded";
    return queued ? "cancelled while queued" : "cancelled";
}

void
JobManager::onJobStalled(const std::shared_ptr<Job> &job,
                         const std::string &diagnosis)
{
    // Single writer (the watchdog thread): the diagnosis string is
    // fully written before the release store, so any reader observing
    // stalled == true (acquire) may read it without a lock.  Only the
    // first episode keeps its diagnosis.
    if (!job->stalled.load(std::memory_order_acquire)) {
        job->stallDiagnosis = diagnosis;
        job->stalled.store(true, std::memory_order_release);
    }
    GRAPHABCD_LOG_WARN("serve", "job stalled", LOGF("job", job->id),
                       LOGF("tenant", job->req.tenant),
                       LOGF("engine", job->req.engine),
                       LOGF("span_root", job->traceRoot.span),
                       LOGF("pool_queue_depth", executor_->queueDepth()),
                       LOGF("admit_queue_depth", queue_.size()),
                       LOGF("diagnosis", diagnosis));
    obs::flightNote("serve", "job " + std::to_string(job->id) +
                                 " stalled: " + diagnosis);
    if (cfg_.cancelOnStall)
        job->stop.requestStop();
}

std::string
JobManager::flightJson() const
{
    // Runs as a FlightRecorder provider, outside the recorder mutex;
    // takes mtx_ like any status() reader.  Gauges first (lock-free).
    std::ostringstream os;
    os << "{\"queue_depth\":" << queue_.size()
       << ",\"running\":" << running_.load(std::memory_order_relaxed)
       << ",\"jobs\":[";
    std::lock_guard<std::mutex> lock(mtx_);
    bool first = true;
    for (const auto &[id, job] : jobs_) {
        const Progress &p = *job->progress;
        os << (first ? "" : ",") << "\n{\"id\":" << id << ",\"state\":"
           << obs::jsonQuote(to_string(
                  job->state.load(std::memory_order_acquire)))
           << ",\"tenant\":" << obs::jsonQuote(job->req.tenant)
           << ",\"graph\":" << obs::jsonQuote(job->req.graph)
           << ",\"algo\":" << obs::jsonQuote(job->req.algo)
           << ",\"engine\":" << obs::jsonQuote(job->req.engine)
           << ",\"span_root\":" << job->traceRoot.span
           << ",\"submitted_at\":" << job->submittedAt
           << ",\"started_at\":" << job->startedAt
           << ",\"finished_at\":" << job->finishedAt
           << ",\"vertex_updates\":"
           << p.vertexUpdates.load(std::memory_order_relaxed)
           << ",\"block_updates\":"
           << p.blockUpdates.load(std::memory_order_relaxed)
           << ",\"edge_traversals\":"
           << p.edgeTraversals.load(std::memory_order_relaxed)
           << ",\"scatter_writes\":"
           << p.scatterWrites.load(std::memory_order_relaxed)
           << ",\"activation_entries\":"
           << p.activationEntries.load(std::memory_order_relaxed)
           << ",\"stalled\":"
           << (job->stalled.load(std::memory_order_acquire) ? "true"
                                                            : "false")
           << ",\"error\":" << obs::jsonQuote(job->error) << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

JobManager::TenantEntry &
JobManager::tenantEntryLocked(const std::string &tenant)
{
    auto it = tenants_.find(tenant);
    if (it != tenants_.end())
        return it->second;
    TenantEntry &entry = tenants_[tenant];
    // Resolve the per-tenant instruments once; tenant cardinality is
    // small (lanes are configured, not per-request).  Under
    // GRAPHABCD_OBS=OFF these resolve to the shared no-op instruments.
    // Metric keys take the *sanitized* tenant name (dump lines and the
    // Prometheus exposition must stay parseable whatever a client
    // sends); QoS lanes and the stats map keep the raw name.  Two raw
    // names may sanitize to the same key — they then share instruments,
    // which is the documented trade for a bounded character set.
    const std::string prefix =
        "serve.tenant." + obs::sanitizeMetricComponent(tenant) + ".";
    entry.queuedGauge = &obs::gauge((prefix + "queued").c_str());
    entry.runningGauge = &obs::gauge((prefix + "running").c_str());
    entry.completedCounter =
        &obs::counter((prefix + "completed").c_str());
    entry.shedCounter = &obs::counter((prefix + "shed").c_str());
    entry.waitHist = &obs::histogram((prefix + "wait_us").c_str(),
                                     obs::latencyBucketsUs());
    return entry;
}

void
JobManager::publishTenantGauges(const TenantEntry &entry)
{
    if constexpr (obs::kEnabled) {
        if (entry.queuedGauge) {
            entry.queuedGauge->set(
                static_cast<double>(entry.stats.queued));
        }
        if (entry.runningGauge) {
            entry.runningGauge->set(
                static_cast<double>(entry.stats.running));
        }
    }
}

std::optional<JobStatus>
JobManager::status(JobId id) const
{
    // Hold the lock across the whole snapshot: every non-atomic Job
    // field is written under mtx_ once the job is published.
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const std::shared_ptr<Job> &job = it->second;

    JobStatus st;
    st.id = job->id;
    st.state = job->state.load(std::memory_order_acquire);
    st.tenant = job->req.tenant;
    st.priority = job->req.priority;
    st.cacheHit = job->cacheHit;
    st.warmStarted = job->warmStarted;
    st.error = job->error;

    if (isTerminal(st.state)) {
        st.queuedSeconds = job->startedAt - job->submittedAt;
        st.runSeconds = job->finishedAt - job->startedAt;
        if (job->report) {
            st.epochs = job->report->epochs;
            st.blockUpdates = job->report->blockUpdates;
            st.edgeTraversals = job->report->edgeTraversals;
            st.scatterWrites = job->report->scatterWrites;
            st.activationEntries = job->report->activationEntries;
            st.converged = job->report->converged;
        }
    } else {
        const double now = monotonicSeconds();
        const double n = std::max<double>(job->graph->numVertices(), 1.0);
        const bool running = st.state == JobState::Running;
        st.queuedSeconds =
            (running ? job->startedAt : now) - job->submittedAt;
        st.runSeconds = running ? now - job->startedAt : 0.0;
        // Live counters from the engine's lock-free Progress sink.
        const Progress &p = *job->progress;
        st.epochs = static_cast<double>(p.vertexUpdates.load(
                        std::memory_order_relaxed)) / n;
        st.blockUpdates =
            p.blockUpdates.load(std::memory_order_relaxed);
        st.edgeTraversals =
            p.edgeTraversals.load(std::memory_order_relaxed);
        st.scatterWrites =
            p.scatterWrites.load(std::memory_order_relaxed);
        st.activationEntries =
            p.activationEntries.load(std::memory_order_relaxed);
    }
    return st;
}

std::shared_ptr<const JobResult>
JobManager::result(JobId id) const
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    const Job &job = *it->second;
    if (job.state.load(std::memory_order_acquire) != JobState::Done)
        return nullptr;
    if (job.result) {
        // First fetch: hand the record's reference to the caller.
        job.fetched = job.result;
        return std::move(job.result);
    }
    return job.fetched.lock();
}

bool
JobManager::wait(JobId id, double timeout_seconds) const
{
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        job = it->second;
    }
    auto terminal = [&job] {
        return isTerminal(job->state.load(std::memory_order_acquire));
    };
    std::unique_lock<std::mutex> lock(mtx_);
    // wait_for converts to the clock's integer ticks, which overflows
    // (and returns at once) for timeouts of centuries: wait forever.
    constexpr double kForeverSeconds = 1e9;
    if (timeout_seconds < 0.0 || timeout_seconds >= kForeverSeconds) {
        doneCv_.wait(lock, terminal);
        return true;
    }
    return doneCv_.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), terminal);
}

ServeStats
JobManager::stats() const
{
    ServeStats out;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        out = stats_;
    }
    out.queueDepth = queue_.size();
    out.running = running_.load(std::memory_order_relaxed);
    return out;
}

std::map<std::string, TenantServeStats>
JobManager::tenantStats() const
{
    std::map<std::string, TenantServeStats> out;
    std::lock_guard<std::mutex> lock(mtx_);
    for (const auto &[tenant, entry] : tenants_)
        out.emplace(tenant, entry.stats);
    return out;
}

std::shared_ptr<const obs::ConvergenceSeries>
JobManager::convergence(JobId id) const
{
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second->series;
}

void
JobManager::shutdown()
{
    if (shutdown_.exchange(true, std::memory_order_acq_rel))
        return;
    // The flight provider and the watchdog's stall closures capture
    // `this`/job records — deregister and quiesce them before any
    // member is torn down.
    if constexpr (obs::kEnabled) {
        if (flightProviderToken_ != 0) {
            obs::flightRemoveProvider(flightProviderToken_);
            flightProviderToken_ = 0;
        }
        if (watchdog_)
            watchdog_->stop();
    }
    // Stop running engines promptly; queued jobs drain as cancelled.
    {
        std::lock_guard<std::mutex> lock(mtx_);
        for (auto &[id, job] : jobs_) {
            if (!isTerminal(job->state.load(std::memory_order_acquire)))
                job->stop.requestStop();
        }
    }
    queue_.close();
    for (auto &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
    GRAPHABCD_LOG_INFO("serve", "job manager stopped");
}

} // namespace graphabcd
