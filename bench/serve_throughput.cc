/**
 * @file
 * Closed-loop throughput benchmark for the serve layer.
 *
 * N client threads each submit-and-wait jobs against two registered
 * graphs, drawing algorithm and parameters from a small pool so the
 * ResultCache sees a realistic mix of repeats (hits) and fresh work
 * (misses).  QueueFull rejections back off and retry — that is the
 * admission control doing its job, and the rejection count is part of
 * the result.
 *
 * Configs cover the serial engine (service overhead + one core per
 * job) and the threaded async engine, where concurrent jobs share the
 * process-wide Executor instead of spawning per-job thread armies —
 * the peak OS thread count of the process is sampled per config to
 * show the bound.
 *
 * Prints per-config: jobs/sec, cache hit rate, rejection count, peak
 * threads; also writes every row to BENCH_serve.json so later changes
 * can track the perf trajectory.
 *
 * The run ends with a multi-tenant QoS stress: four tenants with 4:2:1:1
 * fair-share weights, where the weight-1 "free" tenant offers ~4x the
 * load of the equal-weight "bronze" tenant (4 client threads vs 1) and
 * a slice of its submissions carries a deadline far tighter than the
 * queue wait.  The FairShareQueue must hold each backlogged tenant's
 * completed-work share near weight/sum(weights) regardless of offered
 * load (the fairness numbers land in BENCH_serve.json), displace the
 * over-share flood's newest work first under queue pressure (terminal
 * "shed" status, fail-fast), and shed the deadline-doomed submissions
 * at admission.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hh"
#include "obs/obs.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "support/flags.hh"
#include "support/timer.hh"

using namespace graphabcd;

namespace {

struct WorkloadItem
{
    const char *graph;
    const char *algo;
    VertexId source;
};

/** Mixed PR/SSSP pool: 8 distinct jobs over 2 graphs. */
const WorkloadItem kPool[] = {
    {"web", "pr", 0},    {"web", "sssp", 0},  {"web", "sssp", 7},
    {"road", "pr", 0},   {"road", "sssp", 0}, {"road", "sssp", 3},
    {"web", "bfs", 0},   {"road", "cc", 0},
};

struct ClientResult
{
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
};

/** One row of the benchmark, printed and serialised to JSON. */
struct ConfigResult
{
    std::uint32_t clients = 0;
    std::uint32_t workers = 0;
    std::string engine;
    bool cached = false;
    std::uint64_t jobs = 0;
    double jobsPerSec = 0.0;
    double hitRate = 0.0;
    std::uint64_t warmStarts = 0;
    std::uint64_t rejected = 0;
    long peakThreads = 0;
};

/** @return the current OS thread count of this process (-1 off-linux). */
long
processThreadCount()
{
    std::ifstream ifs("/proc/self/status");
    std::string key;
    while (ifs >> key) {
        if (key == "Threads:") {
            long n = -1;
            ifs >> n;
            return n;
        }
        ifs.ignore(4096, '\n');
    }
    return -1;
}

ClientResult
runClient(JobManager &manager, std::uint32_t seed, std::uint64_t jobs,
          bool cached, const std::string &engine,
          std::uint32_t engine_threads)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(
        0, std::size(kPool) - 1);
    ClientResult out;
    for (std::uint64_t i = 0; i < jobs; i++) {
        const WorkloadItem &item = kPool[pick(rng)];
        JobRequest req;
        req.graph = item.graph;
        req.algo = item.algo;
        req.engine = engine;
        req.source = item.source;
        req.allowCached = cached;
        req.allowWarmStart = cached;
        req.options.tolerance = 1e-6;
        req.options.numThreads = engine_threads;
        JobManager::Submitted sub;
        // Closed loop with retry: a QueueFull rejection is backpressure,
        // not failure — count it and resubmit after a short pause.
        while (!(sub = manager.submit(req)).ok()) {
            if (sub.error != SubmitError::QueueFull)
                return out;
            out.rejected++;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        manager.wait(sub.id);
        out.completed++;
    }
    return out;
}

ConfigResult
runConfig(GraphRegistry &registry, std::uint32_t clients,
          std::uint32_t workers, std::uint64_t jobs_per_client,
          bool cached, const std::string &engine,
          std::uint32_t engine_threads)
{
    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 2 * clients;
    JobManager manager(registry, cfg);

    std::vector<std::thread> threads;
    std::vector<ClientResult> results(clients);
    std::atomic<bool> done{false};
    // Sample the process thread count while the load runs: with the
    // shared executor it must stay at pool + service workers + clients
    // no matter how many engine jobs run concurrently.
    long peak = processThreadCount();
    std::thread sampler([&done, &peak] {
        while (!done.load(std::memory_order_acquire)) {
            peak = std::max(peak, processThreadCount());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    Timer timer;
    for (std::uint32_t c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            results[c] = runClient(manager, 1000 + c, jobs_per_client,
                                   cached, engine, engine_threads);
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = timer.seconds();
    done.store(true, std::memory_order_release);
    sampler.join();

    std::uint64_t completed = 0, rejected = 0;
    for (const auto &r : results) {
        completed += r.completed;
        rejected += r.rejected;
    }
    const ResultCache::Stats cs = manager.cache().stats();
    const ServeStats ss = manager.stats();

    ConfigResult row;
    row.clients = clients;
    row.workers = workers;
    row.engine = engine;
    row.cached = cached;
    row.jobs = completed;
    row.jobsPerSec = completed / elapsed;
    row.hitRate = cs.hitRate();
    row.warmStarts = ss.warmStarts;
    row.rejected = rejected;
    row.peakThreads = peak;
    std::printf(
        "clients=%2u workers=%2u engine=%-6s cached=%d | jobs=%llu  "
        "%8.1f jobs/s  hitrate=%.2f  warmstarts=%llu  rejected=%llu  "
        "peak_threads=%ld\n",
        clients, workers, engine.c_str(), cached ? 1 : 0,
        static_cast<unsigned long long>(completed), row.jobsPerSec,
        cs.hitRate(), static_cast<unsigned long long>(ss.warmStarts),
        static_cast<unsigned long long>(rejected), peak);
    std::fflush(stdout);
    return row;
}

// ---------------------------------------------------------------------
// Multi-tenant QoS stress
// ---------------------------------------------------------------------

/** One tenant of the stress mix. */
struct TenantSpec
{
    const char *name;
    double weight;
    std::uint32_t clients;    //!< offered-load knob (threads)
    double deadlineFrac;      //!< slice of submissions with a deadline
                              //!< far tighter than the queue wait
};

/**
 * gold:silver:bronze = 4:2:1 at equal offered load; free matches
 * bronze's weight but offers ~4x its load (and a slice of doomed
 * deadlines), so fairness — not arrival order — must set the shares.
 */
const TenantSpec kTenantMix[] = {
    {"gold", 4.0, 1, 0.0},
    {"silver", 2.0, 1, 0.0},
    {"bronze", 1.0, 1, 0.0},
    {"free", 1.0, 4, 0.05},
};

/** Per-tenant outcome of the stress, serialised to JSON. */
struct QosRow
{
    std::string tenant;
    double weight = 0.0;
    std::uint32_t clients = 0;
    ServeStats stats;
    double share = 0.0;    //!< completed / total completed
    double target = 0.0;   //!< weight / sum(weights)
    double err = 0.0;      //!< |share - target| / target
};

struct QosSummary
{
    double seconds = 0.0;
    std::uint32_t workers = 0;
    std::size_t queueCapacity = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t shedAdmission = 0;
    double maxErr = 0.0;
    std::vector<QosRow> rows;
};

/**
 * One stress client: flood the service with small uncacheable pr jobs
 * for this tenant, keeping up to `window` in flight (waiting the
 * oldest out when the window is full).  Shed submissions fail fast —
 * no wait, no retry — which is the point of shedding.
 */
void
runQosClient(JobManager &manager, const TenantSpec &spec,
             std::uint32_t seed, const std::atomic<bool> &stop)
{
    constexpr std::size_t kWindow = 48;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::deque<JobId> window;
    while (!stop.load(std::memory_order_acquire)) {
        JobRequest req;
        req.graph = "tiny";
        req.algo = "pr";
        req.engine = "serial";
        req.tenant = spec.name;
        req.allowCached = false;
        req.allowWarmStart = false;
        req.options.tolerance = 1e-5;
        req.options.numThreads = 1;
        if (spec.deadlineFrac > 0.0 && coin(rng) < spec.deadlineFrac)
            req.timeoutSeconds = 0.02;
        const JobManager::Submitted sub = manager.submit(req);
        if (sub.ok()) {
            window.push_back(sub.id);
        } else if (sub.error == SubmitError::QueueFull) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        // SubmitError::Shed falls through with no sleep: the client
        // learnt instantly that the job was doomed.
        while (window.size() >= kWindow) {
            manager.wait(window.front(), 5.0);
            window.pop_front();
        }
    }
    for (const JobId id : window)
        manager.cancel(id);
}

QosSummary
runQosStress(GraphRegistry &registry, double seconds,
             std::uint32_t workers, std::size_t queue_capacity)
{
    ServeConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = queue_capacity;
    cfg.cacheCapacity = 8;
    cfg.maxRetainedJobs = 4 * queue_capacity;
    cfg.shedOnDeadline = true;
    for (const TenantSpec &spec : kTenantMix)
        cfg.tenantQos[spec.name] = TenantQos{spec.weight, 0, 0};
    JobManager manager(registry, cfg);

    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    std::uint32_t seed = 7000;
    for (const TenantSpec &spec : kTenantMix) {
        for (std::uint32_t c = 0; c < spec.clients; c++) {
            clients.emplace_back([&manager, &spec, &stop, seed] {
                runQosClient(manager, spec, seed, stop);
            });
            seed++;
        }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    // Snapshot while the offered load is still running, so the window
    // measures steady-state fairness, not drain-out.
    const auto per_tenant = manager.tenantStats();
    const ServeStats global = manager.stats();
    stop.store(true, std::memory_order_release);
    for (auto &t : clients)
        t.join();
    manager.shutdown();

    double total_weight = 0.0;
    std::uint64_t total_completed = 0;
    for (const TenantSpec &spec : kTenantMix) {
        total_weight += spec.weight;
        auto it = per_tenant.find(spec.name);
        if (it != per_tenant.end())
            total_completed += it->second.completed;
    }

    QosSummary out;
    out.seconds = seconds;
    out.workers = workers;
    out.queueCapacity = queue_capacity;
    out.submitted = global.submitted;
    out.completed = total_completed;
    out.shed = global.shed;
    out.shedAdmission = global.shedAdmission;
    for (const TenantSpec &spec : kTenantMix) {
        QosRow row;
        row.tenant = spec.name;
        row.weight = spec.weight;
        row.clients = spec.clients;
        auto it = per_tenant.find(spec.name);
        if (it != per_tenant.end())
            row.stats = it->second;
        row.share = total_completed > 0
                        ? static_cast<double>(row.stats.completed) /
                              static_cast<double>(total_completed)
                        : 0.0;
        row.target = spec.weight / total_weight;
        row.err = std::abs(row.share - row.target) / row.target;
        out.maxErr = std::max(out.maxErr, row.err);
        std::printf(
            "qos tenant=%-6s weight=%.0f clients=%u | submitted=%llu "
            "completed=%llu shed=%llu shedadm=%llu rejected=%llu | "
            "share=%.3f target=%.3f err=%.1f%%\n",
            row.tenant.c_str(), row.weight, row.clients,
            static_cast<unsigned long long>(row.stats.submitted),
            static_cast<unsigned long long>(row.stats.completed),
            static_cast<unsigned long long>(row.stats.shed),
            static_cast<unsigned long long>(row.stats.shedAdmission),
            static_cast<unsigned long long>(row.stats.rejected),
            row.share, row.target, 100.0 * row.err);
        out.rows.push_back(std::move(row));
    }
    std::printf("qos total: submitted=%llu completed=%llu shed=%llu "
                "shedadm=%llu max_err=%.1f%%\n",
                static_cast<unsigned long long>(out.submitted),
                static_cast<unsigned long long>(out.completed),
                static_cast<unsigned long long>(out.shed),
                static_cast<unsigned long long>(out.shedAdmission),
                100.0 * out.maxErr);
    std::fflush(stdout);
    return out;
}

void
writeJson(const std::vector<ConfigResult> &rows, const QosSummary &qos,
          const std::string &path)
{
    std::ofstream ofs(path);
    ofs << "{\n  \"benchmark\": \"serve_throughput\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); i++) {
        const ConfigResult &r = rows[i];
        ofs << "    {\"clients\": " << r.clients
            << ", \"workers\": " << r.workers << ", \"engine\": \""
            << r.engine << "\", \"cached\": " << (r.cached ? 1 : 0)
            << ", \"jobs\": " << r.jobs << ", \"jobs_per_sec\": "
            << r.jobsPerSec << ", \"hit_rate\": " << r.hitRate
            << ", \"warm_starts\": " << r.warmStarts
            << ", \"rejected\": " << r.rejected
            << ", \"peak_threads\": " << r.peakThreads << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    ofs << "  ],\n";
    ofs << "  \"qos_stress\": {\n"
        << "    \"seconds\": " << qos.seconds
        << ", \"workers\": " << qos.workers
        << ", \"queue_capacity\": " << qos.queueCapacity
        << ", \"submitted\": " << qos.submitted
        << ", \"completed\": " << qos.completed
        << ", \"shed\": " << qos.shed
        << ", \"shed_admission\": " << qos.shedAdmission
        << ", \"max_share_err\": " << qos.maxErr << ",\n"
        << "    \"tenants\": [\n";
    for (std::size_t i = 0; i < qos.rows.size(); i++) {
        const QosRow &r = qos.rows[i];
        ofs << "      {\"tenant\": \"" << r.tenant
            << "\", \"weight\": " << r.weight
            << ", \"clients\": " << r.clients
            << ", \"submitted\": " << r.stats.submitted
            << ", \"completed\": " << r.stats.completed
            << ", \"shed\": " << r.stats.shed
            << ", \"shed_admission\": " << r.stats.shedAdmission
            << ", \"rejected\": " << r.stats.rejected
            << ", \"cancelled\": " << r.stats.cancelled
            << ", \"share\": " << r.share
            << ", \"target\": " << r.target
            << ", \"err\": " << r.err << "}"
            << (i + 1 < qos.rows.size() ? "," : "") << "\n";
    }
    ofs << "    ]\n  }\n}\n";
    std::printf("wrote %s (%zu rows + qos stress)\n", path.c_str(),
                rows.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declareDouble("scale", 0.1, "dataset scale factor");
    flags.declareInt("jobs", 40, "jobs per client");
    flags.declareInt("max-clients", 8, "largest client count");
    flags.declareInt("async-threads", 4,
                     "numThreads of each async engine job");
    flags.declare("json", "BENCH_serve.json",
                  "output file for the machine-readable results");
    flags.declareInt("sample-ms", 0,
                     "run the background metrics sampler at this "
                     "interval (0 = off); used to bound its overhead");
    flags.declareDouble("qos-seconds", 3.0,
                        "duration of the multi-tenant QoS stress "
                        "(0 = skip it)");
    flags.declareInt("qos-workers", 2,
                     "service workers during the QoS stress");
    flags.declareInt("qos-queue", 192,
                     "admission queue capacity during the QoS stress");
    if (!flags.parse(argc, argv))
        return 0;
    const double scale = flags.getDouble("scale");
    const auto jobs =
        static_cast<std::uint64_t>(flags.getInt("jobs"));
    const auto max_clients =
        static_cast<std::uint32_t>(flags.getInt("max-clients"));
    const auto async_threads =
        static_cast<std::uint32_t>(flags.getInt("async-threads"));

    // The acceptance knob for the sampler: re-run with --sample-ms=10
    // and compare jobs/s against the default run to bound the
    // background snapshot cost (< 2% is the bar; it is one registry
    // mutex + relaxed loads per tick, nowhere near any hot path).
    const std::int64_t sample_ms = flags.getInt("sample-ms");
    if (sample_ms > 0)
        obs::startSampler(static_cast<double>(sample_ms) / 1000.0);

    GraphRegistry registry;
    registry.add("web", makeDataset("WT", scale).graph, 512);
    registry.add("road", makeDataset("PS", scale).graph, 512);
    // The QoS stress wants jobs cheap enough that thousands complete
    // in a few seconds — fairness is about counts, not engine speed.
    registry.add("tiny", makeDataset("WT", 0.02).graph, 256);
    std::printf("serve_throughput: scale=%.2f jobs/client=%llu "
                "sample-ms=%lld\n",
                scale, static_cast<unsigned long long>(jobs),
                static_cast<long long>(sample_ms));

    std::vector<ConfigResult> rows;
    // Cache disabled: every job runs the engine (pure service overhead
    // + engine throughput).  Cache enabled: the 8-job pool repeats, so
    // the steady state is mostly hits.
    for (const bool cached : {false, true})
        for (std::uint32_t clients = 1; clients <= max_clients;
             clients *= 2)
            rows.push_back(runConfig(registry, clients, /*workers=*/4,
                                     jobs, cached, "serial", 1));
    // The multi-tenant async case: every job is a threaded engine run.
    // With the shared executor they split one pool; without it (the
    // old design) they each spawned async-threads workers and the
    // machine oversubscribed clients x async-threads fold.
    for (std::uint32_t clients = 1; clients <= max_clients;
         clients *= 2)
        rows.push_back(runConfig(registry, clients,
                                 /*workers=*/std::max(4u, clients), jobs,
                                 /*cached=*/false, "async",
                                 async_threads));

    QosSummary qos;
    const double qos_seconds = flags.getDouble("qos-seconds");
    if (qos_seconds > 0.0) {
        qos = runQosStress(
            registry, qos_seconds,
            static_cast<std::uint32_t>(flags.getInt("qos-workers")),
            static_cast<std::size_t>(flags.getInt("qos-queue")));
    }
    writeJson(rows, qos, flags.get("json"));
    if (sample_ms > 0)
        obs::stopSampler();
    return 0;
}
