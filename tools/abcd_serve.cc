/**
 * @file
 * abcd_serve — the serve layer behind a line-oriented request protocol
 * on stdin/stdout, one request per line, one `OK ...` or `ERR ...`
 * reply per request.  An RPC transport later swaps the framing, not
 * the service.
 *
 *   LOAD <name> <dataset-key-or-file> [scale=F] [block-size=N]
 *        [undirected=0|1] [seed=N] [layout=plain|compressed]
 *        [reorder=none|hub]
 *   RUN <graph> <algo> [engine=serial|async|accum|sim]
 *       [tenant=NAME] [source=N] [priority=F] [timeout=F]
 *       [tolerance=F] [schedule=cyclic|priority|random]
 *       [threads=N] [max-epochs=F] [cached=0|1]
 *       [warm=0|1]
 *   STATUS <job-id>
 *   WAIT <job-id> [timeout-seconds]   (negative or omitted: forever)
 *   CANCEL <job-id>
 *   VALUE <job-id> <vertex>
 *   TENANTS               per-tenant QoS counters and gauges
 *   TRACE <file>          write the trace buffer as Chrome JSON
 *   METRICS               Prometheus text exposition of the registry
 *   CONV <job-id> [file]  the job's convergence curve as CSV
 *   DUMP <file>           write a flight-recorder snapshot (black box)
 *   GRAPHS | STATS | HELP | QUIT
 *
 * LOAD and RUN take only the keys listed; an unknown key, an unknown
 * schedule, a negative or fractional count or id (N), a switch other
 * than 0 or 1, or block-size=0 is refused with ERR BadCommand.  A
 * dataset scale out of range is ERR LoadFailed naming the scale.  A
 * request validate() refuses (serve/runner.hh: a non-finite tolerance
 * or priority, a negative or non-finite timeout, an engine that cannot
 * run the algorithm, ...) is ERR BadRequest with its reason.
 *
 * Debugging: --flight=PATH arms the flight recorder — fatal errors,
 * fatal signals, and watchdog stalls dump the black box (recent logs,
 * job table, metrics, trace rings) to PATH; DUMP <file> captures the
 * same snapshot on demand.  --stall-window=SECONDS starts the stall
 * watchdog (a Running job whose progress counters stay flat that long
 * is flagged), --stall-check its poll period, and --stall-cancel
 * escalates a flagged stall to cooperative cancellation.
 *
 * Multi-tenant QoS: --tenants=name:weight[:inflight[:queued]],...
 * configures per-tenant fair-share weights and quotas (e.g.
 * --tenants=gold:4,free:1:2:8), --default-weight the weight of
 * unlisted tenants, and --shed-deadline=0 disables admission-time
 * deadline shedding.  RUN tenant=NAME files the job in that tenant's
 * lane; omitted means the shared "default" lane.
 *
 * With --metrics-port=N the same exposition (plus /series and
 * /convergence) is served over loopback HTTP for scrapes, and
 * --sample-ms=N runs the background sampler so counters/gauges gain a
 * time dimension; --log-level/--log-json configure the structured
 * logger on stderr.
 *
 * STATS reports the service counters and, when the build carries the
 * observability layer (GRAPHABCD_OBS=ON, the default), dumps the whole
 * process-wide metrics registry — engine latency/staleness histograms,
 * scheduler churn, queue depths, HARP utilization gauges.
 *
 * Example session (see README "Serving mode"):
 *   > LOAD web WT scale=0.2
 *   OK graph web vertices=47800 edges=100472 blocks=94
 *   > RUN web pr engine=async
 *   OK job 1
 *   > WAIT 1
 *   OK job 1 state=done converged=1 cachehit=0 epochs=18.00 ...
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/datasets.hh"
#include "graph/io.hh"
#include "obs/log.hh"
#include "obs/metrics_server.hh"
#include "obs/obs.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "serve/runner.hh"
#include "support/flags.hh"

using namespace graphabcd;

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::istringstream iss(line);
    std::vector<std::string> out;
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

/**
 * Parse trailing key=value tokens into a map; bare tokens rejected.  A
 * key outside `known` throws (ERR BadCommand) rather than being ignored.
 */
bool
parseParams(const std::vector<std::string> &tokens, std::size_t first,
            std::map<std::string, std::string> &params,
            std::initializer_list<std::string_view> known)
{
    for (std::size_t i = first; i < tokens.size(); i++) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        const std::string key = tokens[i].substr(0, eq);
        if (std::find(known.begin(), known.end(), key) == known.end())
            throw std::invalid_argument("unknown key '" + key + "'");
        params[key] = tokens[i].substr(eq + 1);
    }
    return true;
}

double
param(const std::map<std::string, std::string> &params,
      const std::string &key, double fallback)
{
    auto it = params.find(key);
    return it == params.end() ? fallback : std::stod(it->second);
}

std::string
param(const std::map<std::string, std::string> &params,
      const std::string &key, const std::string &fallback)
{
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
}

/** A count or id parameter: a negative, fractional or out-of-range
 *  value throws (ERR BadCommand) instead of wrapping in the cast. */
template <typename T>
T
countParam(const std::map<std::string, std::string> &params,
           const std::string &key, T fallback)
{
    const double x = param(params, key, static_cast<double>(fallback));
    if (!(x >= 0.0) || x != std::floor(x) ||
        !(x < static_cast<double>(std::numeric_limits<T>::max()) + 1.0))
        throw std::invalid_argument(key + " must be a non-negative integer");
    return static_cast<T>(x);
}

/** A 0|1 switch; any other value throws (ERR BadCommand). */
bool
switchParam(const std::map<std::string, std::string> &params,
            const std::string &key, bool fallback)
{
    const std::string value =
        param(params, key, std::string(fallback ? "1" : "0"));
    if (value != "0" && value != "1")
        throw std::invalid_argument(key + " must be 0 or 1");
    return value == "1";
}

/** A named-enum parameter; an unknown name throws (ERR BadCommand). */
template <typename Parse>
auto
enumParam(const std::map<std::string, std::string> &params,
          const std::string &key, const std::string &fallback, Parse parse)
{
    const std::string name = param(params, key, fallback);
    const auto value = parse(name);
    if (!value)
        throw std::invalid_argument("unknown " + key + " '" + name + "'");
    return *value;
}

/** The REPL over one registry + one manager. */
class ServeShell
{
  public:
    ServeShell(GraphRegistry &registry, JobManager &manager)
        : registry_(registry), manager_(manager)
    {
    }

    /** @return false when the session should end. */
    bool
    handle(const std::string &line)
    {
        const auto tokens = tokenize(line);
        if (tokens.empty())
            return true;
        const std::string &cmd = tokens[0];
        if (cmd == "QUIT" || cmd == "EXIT")
            return false;
        try {
            if (cmd == "HELP")
                help();
            else if (cmd == "LOAD")
                load(tokens);
            else if (cmd == "RUN")
                run(tokens);
            else if (cmd == "STATUS")
                status(tokens);
            else if (cmd == "WAIT")
                wait(tokens);
            else if (cmd == "CANCEL")
                cancel(tokens);
            else if (cmd == "VALUE")
                value(tokens);
            else if (cmd == "GRAPHS")
                graphs();
            else if (cmd == "STATS")
                stats();
            else if (cmd == "TENANTS")
                tenants();
            else if (cmd == "TRACE")
                trace(tokens);
            else if (cmd == "METRICS")
                metrics();
            else if (cmd == "CONV")
                conv(tokens);
            else if (cmd == "DUMP")
                dump(tokens);
            else
                std::printf("ERR BadCommand unknown command '%s'\n",
                            cmd.c_str());
        } catch (const std::exception &e) {
            // Bad numeric arguments (stoull/stod) land here; one bad
            // request must never take the service down.
            std::printf("ERR BadCommand %s\n", e.what());
        }
        return true;
    }

  private:
    void
    help()
    {
        std::printf(
            "OK commands: LOAD RUN STATUS WAIT CANCEL VALUE GRAPHS "
            "STATS TENANTS TRACE METRICS CONV DUMP HELP QUIT\n");
    }

    void
    load(const std::vector<std::string> &tokens)
    {
        std::map<std::string, std::string> params;
        if (tokens.size() < 3 ||
            !parseParams(tokens, 3, params,
                         {"scale", "block-size", "undirected", "seed",
                          "layout", "reorder"})) {
            std::printf("ERR BadCommand usage: LOAD <name> "
                        "<dataset-or-file> [key=value...]\n");
            return;
        }
        const std::string &name = tokens[1];
        const std::string &src = tokens[2];
        const double scale = param(params, "scale", 1.0);
        const auto seed = countParam<std::uint64_t>(params, "seed", 42);
        const auto block_size =
            countParam<VertexId>(params, "block-size", 512);
        if (block_size == 0)
            throw std::invalid_argument("block-size must be positive");
        const bool undirected = switchParam(params, "undirected", false);
        LayoutOptions lo;
        lo.layout = enumParam(params, "layout", "plain", parseGraphLayout);
        lo.reorder =
            enumParam(params, "reorder", "none", parseVertexReorder);
        try {
            EdgeList el;
            if (src.find('.') != std::string::npos ||
                src.find('/') != std::string::npos)
                el = loadEdgeListFile(src);
            else
                el = makeDataset(src, scale, seed).graph;
            if (undirected)
                el = el.symmetrized();
            auto g = registry_.add(name, el, block_size, lo);
            std::printf(
                "OK graph %s vertices=%u edges=%llu blocks=%u "
                "layout=%s reorder=%s\n",
                name.c_str(), g->numVertices(),
                static_cast<unsigned long long>(g->numEdges()),
                g->numBlocks(), to_string(g->layout()),
                to_string(g->reorder()));
        } catch (const std::exception &e) {
            std::printf("ERR LoadFailed %s\n", e.what());
        }
    }

    void
    run(const std::vector<std::string> &tokens)
    {
        std::map<std::string, std::string> params;
        if (tokens.size() < 3 ||
            !parseParams(tokens, 3, params,
                         {"engine", "tenant", "source", "priority",
                          "timeout", "cached", "warm", "tolerance",
                          "max-epochs", "threads", "schedule"})) {
            std::printf("ERR BadCommand usage: RUN <graph> <algo> "
                        "[key=value...]\n");
            return;
        }
        JobRequest req;
        req.graph = tokens[1];
        req.algo = tokens[2];
        req.engine = param(params, "engine", std::string("serial"));
        req.tenant = param(params, "tenant", std::string());
        req.source = countParam<VertexId>(params, "source", 0);
        req.priority = param(params, "priority", 0.0);
        req.timeoutSeconds = param(params, "timeout", 0.0);
        req.allowCached = switchParam(params, "cached", true);
        req.allowWarmStart = switchParam(params, "warm", true);
        req.options.tolerance = param(params, "tolerance", 1e-7);
        req.options.maxEpochs = param(params, "max-epochs", 10000.0);
        req.options.numThreads =
            countParam<std::uint32_t>(params, "threads", 4);
        req.options.schedule =
            enumParam(params, "schedule", "cyclic", parseSchedule);

        JobManager::Submitted sub = manager_.submit(std::move(req));
        if (sub.ok())
            std::printf("OK job %llu\n",
                        static_cast<unsigned long long>(sub.id));
        else
            std::printf("ERR %s%s%s\n", to_string(sub.error),
                        sub.reason.empty() ? "" : " ", sub.reason.c_str());
    }

    void
    printStatus(const JobStatus &st)
    {
        std::printf(
            "OK job %llu state=%s tenant=%s converged=%d cachehit=%d "
            "warm=%d epochs=%.2f blocks=%llu edges=%llu scatters=%llu "
            "walked=%llu queued=%.3fs run=%.3fs%s%s\n",
            static_cast<unsigned long long>(st.id),
            to_string(st.state), st.tenant.c_str(),
            st.converged ? 1 : 0,
            st.cacheHit ? 1 : 0, st.warmStarted ? 1 : 0, st.epochs,
            static_cast<unsigned long long>(st.blockUpdates),
            static_cast<unsigned long long>(st.edgeTraversals),
            static_cast<unsigned long long>(st.scatterWrites),
            static_cast<unsigned long long>(st.activationEntries),
            st.queuedSeconds, st.runSeconds,
            st.error.empty() ? "" : " error=",
            st.error.empty() ? "" : st.error.c_str());
    }

    bool
    parseId(const std::vector<std::string> &tokens, JobId &id)
    {
        if (tokens.size() < 2) {
            std::printf("ERR BadCommand missing job id\n");
            return false;
        }
        id = static_cast<JobId>(std::stoull(tokens[1]));
        return true;
    }

    void
    status(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (auto st = manager_.status(id))
            printStatus(*st);
        else
            std::printf("ERR NotFound no job %llu\n",
                        static_cast<unsigned long long>(id));
    }

    void
    wait(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        const double timeout =
            tokens.size() > 2 ? timeoutSeconds(tokens[2]) : -1.0;
        const bool terminal = manager_.wait(id, timeout);
        if (auto st = manager_.status(id)) {
            if (terminal)
                printStatus(*st);
            else
                std::printf("ERR Timeout job %llu still running\n",
                            static_cast<unsigned long long>(id));
        } else {
            std::printf("ERR NotFound no job %llu\n",
                        static_cast<unsigned long long>(id));
        }
    }

    /** WAIT's timeout: a finite number of seconds, negative = forever;
     *  anything else throws (ERR BadCommand). */
    static double
    timeoutSeconds(const std::string &token)
    {
        std::size_t used = 0;
        double x = 0.0;
        try {
            x = std::stod(token, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != token.size() || !std::isfinite(x))
            throw std::invalid_argument("timeout '" + token +
                                        "' must be a finite number of "
                                        "seconds");
        return x;
    }

    void
    cancel(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (manager_.cancel(id))
            std::printf("OK cancelling %llu\n",
                        static_cast<unsigned long long>(id));
        else
            std::printf("ERR NotFound job %llu unknown or terminal\n",
                        static_cast<unsigned long long>(id));
    }

    void
    value(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (tokens.size() < 3) {
            std::printf("ERR BadCommand usage: VALUE <job> <vertex>\n");
            return;
        }
        // The manager hands a finished job's values out once and then
        // keeps only a weak reference; hold the last job's values here
        // so reading it vertex by vertex does not depend on the cache.
        if (id != valueJob_ || !valueResult_) {
            valueResult_ = manager_.result(id);
            valueJob_ = id;
        }
        const std::shared_ptr<const JobResult> &result = valueResult_;
        if (!result) {
            std::printf("ERR NotFound job %llu has no result\n",
                        static_cast<unsigned long long>(id));
            return;
        }
        const auto v =
            static_cast<std::size_t>(std::stoull(tokens[2]));
        if (v >= result->values.size()) {
            std::printf("ERR BadCommand vertex %zu out of range\n", v);
            return;
        }
        std::printf("OK value %zu %.10g\n", v, result->values[v]);
    }

    void
    graphs()
    {
        const auto infos = registry_.list();
        std::printf("OK %zu graphs\n", infos.size());
        for (const auto &info : infos) {
            std::printf("  %s vertices=%u edges=%llu blocks=%u "
                        "refs=%ld\n",
                        info.name.c_str(), info.vertices,
                        static_cast<unsigned long long>(info.edges),
                        info.blocks, info.useCount);
        }
    }

    void
    tenants()
    {
        const auto per_tenant = manager_.tenantStats();
        std::printf("OK %zu tenants\n", per_tenant.size());
        for (const auto &[tenant, t] : per_tenant) {
            std::printf(
                "  %s submitted=%llu completed=%llu rejected=%llu "
                "cancelled=%llu failed=%llu shed=%llu shedadm=%llu "
                "cachehits=%llu warmstarts=%llu queued=%zu "
                "running=%zu\n",
                tenant.c_str(),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.cancelled),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(t.shedAdmission),
                static_cast<unsigned long long>(t.cacheHits),
                static_cast<unsigned long long>(t.warmStarts),
                t.queueDepth, t.running);
        }
    }

    void
    stats()
    {
        const ServeStats s = manager_.stats();
        const ResultCache::Stats c = manager_.cache().stats();
        std::printf(
            "OK submitted=%llu rejected=%llu completed=%llu "
            "cancelled=%llu failed=%llu shed=%llu shedadm=%llu "
            "cachehits=%llu warmstarts=%llu queued=%zu running=%zu "
            "hitrate=%.2f\n",
            static_cast<unsigned long long>(s.submitted),
            static_cast<unsigned long long>(s.rejected),
            static_cast<unsigned long long>(s.completed),
            static_cast<unsigned long long>(s.cancelled),
            static_cast<unsigned long long>(s.failed),
            static_cast<unsigned long long>(s.shed),
            static_cast<unsigned long long>(s.shedAdmission),
            static_cast<unsigned long long>(s.cacheHits),
            static_cast<unsigned long long>(s.warmStarts),
            s.queueDepth, s.running, c.hitRate());
        // Process-wide metrics registry, one indented line per metric
        // (empty in a GRAPHABCD_OBS=OFF build).
        const std::string dump = obs::dumpMetrics();
        std::size_t pos = 0;
        while (pos < dump.size()) {
            std::size_t nl = dump.find('\n', pos);
            if (nl == std::string::npos)
                nl = dump.size();
            std::printf("  %.*s\n", static_cast<int>(nl - pos),
                        dump.c_str() + pos);
            pos = nl + 1;
        }
    }

    void
    metrics()
    {
        // Same body the HTTP /metrics route serves; empty when built
        // with GRAPHABCD_OBS=OFF (no registered metrics).
        std::string body, content_type;
        MetricsServer::handlePath("/metrics", &body, &content_type);
        std::printf("OK metrics bytes=%zu\n", body.size());
        std::fwrite(body.data(), 1, body.size(), stdout);
    }

    void
    conv(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        auto series = manager_.convergence(id);
        if (!series) {
            std::printf("ERR NotFound job %llu has no convergence "
                        "series%s\n",
                        static_cast<unsigned long long>(id),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        const std::string csv = obs::convergenceCsv(*series);
        if (tokens.size() > 2) {
            std::ofstream out(tokens[2]);
            if (!out) {
                std::printf("ERR ConvFailed cannot write %s\n",
                            tokens[2].c_str());
                return;
            }
            out << csv;
            std::printf("OK convergence job %llu points=%zu file=%s\n",
                        static_cast<unsigned long long>(id),
                        series->size(), tokens[2].c_str());
            return;
        }
        std::printf("OK convergence job %llu points=%zu\n",
                    static_cast<unsigned long long>(id),
                    series->size());
        std::fwrite(csv.data(), 1, csv.size(), stdout);
    }

    void
    dump(const std::vector<std::string> &tokens)
    {
        if (tokens.size() < 2) {
            std::printf("ERR BadCommand usage: DUMP <file>\n");
            return;
        }
        if (!obs::flightDump(tokens[1], "DUMP verb")) {
            std::printf("ERR DumpFailed cannot write %s%s\n",
                        tokens[1].c_str(),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        std::printf("OK flight %s\n", tokens[1].c_str());
    }

    void
    trace(const std::vector<std::string> &tokens)
    {
        if (tokens.size() < 2) {
            std::printf("ERR BadCommand usage: TRACE <file>\n");
            return;
        }
        const std::size_t events = obs::traceEventCount();
        if (!obs::writeTrace(tokens[1])) {
            std::printf("ERR TraceFailed cannot write %s%s\n",
                        tokens[1].c_str(),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        std::printf("OK trace %s events=%zu\n", tokens[1].c_str(),
                    events);
    }

    GraphRegistry &registry_;
    JobManager &manager_;
    JobId valueJob_ = 0;   //!< job whose values VALUE last read
    std::shared_ptr<const JobResult> valueResult_;
};

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declareInt("workers", 2, "service worker threads");
    flags.declareInt("pool-threads", 0,
                     "engine worker pool size (0 = the process-wide "
                     "pool sized to the hardware)");
    flags.declareInt("queue", 16, "admission queue capacity");
    flags.declareInt("cache", 64, "result cache entries");
    flags.declareDouble("ttl", 300.0, "result cache TTL seconds");
    flags.declare("tenants", "",
                  "per-tenant QoS spec "
                  "name:weight[:inflight[:queued]],... "
                  "(e.g. gold:4,free:1:2:8)");
    flags.declareDouble("default-weight", 1.0,
                        "fair-share weight of unlisted tenants");
    flags.declareBool("shed-deadline", true,
                      "shed jobs at admission when the estimated "
                      "queue wait alone would blow their deadline");
    flags.declareDouble("service-estimate", 0.0,
                        "seed for the per-job service-seconds "
                        "estimate the deadline shedder uses (0 = "
                        "learn from measured runs only)");
    flags.declareBool("echo", false, "echo commands (for transcripts)");
    flags.declareBool("trace", true,
                      "record trace events for the TRACE verb");
    flags.declare("flight", "",
                  "arm the flight recorder: dump the black box to this "
                  "path on fatal errors, fatal signals, and stalls");
    flags.declareDouble("stall-window", 0.0,
                        "flag a running job whose progress counters "
                        "stay flat this many seconds (0 = watchdog "
                        "off)");
    flags.declareDouble("stall-check", 0.25,
                        "stall watchdog poll period in seconds");
    flags.declareBool("stall-cancel", false,
                      "escalate a flagged stall to cooperative "
                      "cancellation");
    flags.declareInt("metrics-port", -1,
                     "serve /metrics on 127.0.0.1:PORT (0 = ephemeral, "
                     "-1 = disabled)");
    flags.declareInt("sample-ms", 0,
                     "background sampler interval in ms (0 = off)");
    flags.declare("log-level", "",
                  "debug|info|warn|error|off (default: "
                  "GRAPHABCD_LOG_LEVEL or info)");
    flags.declareBool("log-json", false,
                      "emit structured logs as JSON lines");
    if (!flags.parse(argc, argv))
        return 0;

    ServeConfig cfg;
    cfg.workers = static_cast<std::uint32_t>(flags.getInt("workers"));
    cfg.queueCapacity =
        static_cast<std::size_t>(flags.getInt("queue"));
    cfg.cacheCapacity =
        static_cast<std::size_t>(flags.getInt("cache"));
    cfg.cacheTtlSeconds = flags.getDouble("ttl");
    cfg.poolThreads =
        static_cast<std::uint32_t>(flags.getInt("pool-threads"));
    cfg.defaultQos.weight = flags.getDouble("default-weight");
    cfg.shedOnDeadline = flags.getBool("shed-deadline");
    cfg.initialServiceEstimateSeconds =
        flags.getDouble("service-estimate");
    cfg.stallWindowSeconds = flags.getDouble("stall-window");
    cfg.stallCheckSeconds = flags.getDouble("stall-check");
    cfg.cancelOnStall = flags.getBool("stall-cancel");
    if (!flags.get("tenants").empty()) {
        std::string spec_error;
        if (!parseTenantQosSpecs(flags.get("tenants"), &cfg.tenantQos,
                                 &spec_error)) {
            std::printf("ERR BadFlag %s\n", spec_error.c_str());
            return 1;
        }
    }

    obs::setTracingEnabled(flags.getBool("trace"));
    if (!flags.get("flight").empty()) {
        obs::flightArm(flags.get("flight"));
        obs::flightArmSignals();
    }
    if (!flags.get("log-level").empty())
        obs::Logger::global().setLevel(
            obs::parseLogLevel(flags.get("log-level").c_str()));
    if (flags.getBool("log-json"))
        obs::Logger::global().setJson(true);

    MetricsServer metrics_server;
    const std::int64_t metrics_port = flags.getInt("metrics-port");
    if (metrics_port >= 0) {
        std::string error;
        if (!metrics_server.start(
                static_cast<std::uint16_t>(metrics_port), &error)) {
            GRAPHABCD_LOG_ERROR("serve", "metrics server failed",
                                LOGF("error", error));
            std::printf("ERR MetricsPort %s\n", error.c_str());
            return 1;
        }
    }
    const std::int64_t sample_ms = flags.getInt("sample-ms");
    if (sample_ms > 0)
        obs::startSampler(static_cast<double>(sample_ms) / 1000.0);

    GraphRegistry registry;
    JobManager manager(registry, cfg);
    ServeShell shell(registry, manager);
    const bool echo = flags.getBool("echo");

    if (metrics_server.running())
        std::printf("OK abcd_serve ready (workers=%u queue=%zu "
                    "cache=%zu metrics=127.0.0.1:%u)\n",
                    cfg.workers, cfg.queueCapacity, cfg.cacheCapacity,
                    metrics_server.port());
    else
        std::printf("OK abcd_serve ready (workers=%u queue=%zu "
                    "cache=%zu)\n",
                    cfg.workers, cfg.queueCapacity, cfg.cacheCapacity);
    std::string line;
    while (std::getline(std::cin, line)) {
        if (echo)
            std::printf("> %s\n", line.c_str());
        if (!shell.handle(line))
            break;
        std::fflush(stdout);
    }
    manager.shutdown();
    if (sample_ms > 0)
        obs::stopSampler();
    metrics_server.stop();
    std::printf("OK bye\n");
    return 0;
}
