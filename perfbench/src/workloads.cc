#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <shared_mutex>
#include <thread>

#include "algorithms/reference.hh"
#include "graph/datasets.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "spans.hh"

namespace perfbench {

using namespace graphabcd;

namespace {

constexpr double kAlpha = 0.85;        //!< PageRankProgram's default damping
constexpr double kTolerance = 1e-7;    //!< every job's activation threshold
constexpr Schedule kSchedule = Schedule::Cyclic; //!< obim is left out (README)
constexpr double kRefTolerance = 1e-10; //!< pagerankReference stop rule
constexpr VertexId kBlockSize = 512;   //!< EngineOptions default
constexpr unsigned kThreads = 2;       //!< engine numThreads = pool threads
constexpr unsigned kSourcePool = 4;    //!< sssp/bfs sources per graph
constexpr unsigned kTopDegree = 32;    //!< sources come from this many hubs
constexpr unsigned kMaxMismatchLines = 20;

/** Print a failed operation to stdout and to stderr, where a caller that
 *  keeps only the result line still sees it; `first` keeps the first. */
template <class... Args>
void
printFailure(std::string *first, const char *format, Args... args)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, format, args...);
    std::fputs(buf, stdout);
    std::fputs(buf, stderr);
    if (first->empty())
        *first = buf;
}

enum class Mode
{
    Cold,    //!< allowCached = allowWarmStart = false
    Cached,  //!< may be answered from the ResultCache (or warm started)
    Warm,    //!< fresh run, but may warm start from a cached fixpoint
};

struct JobKind
{
    const char *graph;
    const char *algo;
    const char *engine;
    Mode mode;
};

struct GraphSpec
{
    const char *name;     //!< GraphRegistry name
    const char *key;      //!< graph/datasets.hh stand-in
    double scale;
    double smokeScale;
    bool symmetric;       //!< cc needs an undirected graph
    bool packed;          //!< .abcz on disk instead of .bin
    LayoutOptions layout;
    unsigned versions;    //!< > 1: LOADs cycle through seed versions
};

struct WorkloadSpec
{
    const char *name;
    std::vector<GraphSpec> graphs;
    std::vector<JobKind> cycle;          //!< each client's RUN sequence
    std::vector<std::string> clientTenants;
    std::map<std::string, double> weights;
    std::uint32_t workers;
    unsigned loadEvery;                  //!< one LOAD per this many ops
    unsigned setupReps;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    const LayoutOptions plain{};
    const LayoutOptions packed{GraphLayout::Compressed, VertexReorder::Hub};
    // PR:SSSP = 3:1 keeps job_p50_ms inside the PageRank mode.
    auto lj = [](const char *engine) {
        return std::vector<JobKind>{{"lj", "pr", engine, Mode::Cold},
                                    {"lj", "pr", engine, Mode::Cold},
                                    {"lj", "pr", engine, Mode::Cold},
                                    {"lj", "sssp", engine, Mode::Cold}};
    };
    // 12 RUN kinds: 3/4 serial, 1/4 async; 8 cold, 2 cache-eligible
    // and 2 warm-start-eligible, so fast cache-served jobs are about a
    // third.  cc runs on the symmetric WT only.
    static const std::vector<JobKind> mix = {
        {"ps", "pr", "serial", Mode::Cold},
        {"wt", "sssp", "serial", Mode::Cold},
        {"ps", "bfs", "async", Mode::Cold},
        {"wt", "pr", "serial", Mode::Cached},
        {"wt", "cc", "serial", Mode::Cold},
        {"ps", "sssp", "serial", Mode::Cold},
        {"wt", "pr", "async", Mode::Cold},
        {"ps", "pr", "serial", Mode::Warm},
        {"wt", "bfs", "serial", Mode::Cold},
        {"wt", "cc", "serial", Mode::Cached},
        {"ps", "sssp", "async", Mode::Cold},
        {"wt", "sssp", "serial", Mode::Warm},
    };
    static const std::vector<WorkloadSpec> all = {
        {"lj-async",
         {{"lj", "LJ", 4.0, 0.05, false, false, plain, 1}},
         lj("async"), {"default"}, {}, 1, 0, 7},
        {"lj-accum-packed",
         {{"lj", "LJ", 1.0, 0.02, false, true, packed, 1}},
         lj("accum"), {"default"}, {}, 1, 0, 31},
        {"serve-mix",
         {{"ps", "PS", 0.25, 0.02, false, false, plain, 1},
          {"wt", "WT", 0.25, 0.02, true, false, plain, 3}},
         mix, {"gold", "gold", "bronze"}, {{"gold", 2.0}, {"bronze", 1.0}},
         2, 50, 31},
    };
    return all;
}

// ------------------------------------------------------------ inputs

/** One generated graph file plus its reference answers (original ids). */
struct GraphVersion
{
    std::string path;
    VertexId vertices = 0;
    EdgeId edges = 0;
    std::vector<VertexId> sources;
    std::vector<double> pr;
    std::vector<double> cc;
    std::map<VertexId, std::vector<double>> sssp;
    std::map<VertexId, std::vector<double>> bfs;
};

/** A registry name: its versions and which one is registered now. */
struct GraphState
{
    const GraphSpec *spec = nullptr;
    std::vector<GraphVersion> versions;
    std::set<std::string> algos;

    /** RUN submits hold it shared, a LOAD's registry swap exclusive, so
     *  every job knows which version it was submitted against. */
    std::shared_mutex gate;
    unsigned current = 0;              //!< guarded by gate
    std::uint64_t fingerprint = 0;     //!< guarded by gate

    std::mutex loadMtx;   //!< serialises LOADs of this name
    std::shared_ptr<const BlockPartition> live;   //!< loadMtx
    /** Partitions swapped out by LOADs, possibly still held by running
     *  jobs (loadMtx).  The bench keeps none of them alive. */
    std::vector<std::weak_ptr<const BlockPartition>> retired;
    /** Bytes moved by freed partitions: each one's deleter adds its
     *  total here, so no partition is kept alive for the count. */
    std::shared_ptr<std::atomic<std::uint64_t>> freedBytes =
        std::make_shared<std::atomic<std::uint64_t>>(0);

    /** Bytes moved by every partition of this name so far; only
     *  differences between two calls are meaningful. */
    std::uint64_t
    bytesMoved()
    {
        std::lock_guard<std::mutex> lock(loadMtx);
        // Pin the retired partitions before reading freedBytes, so none
        // is freed between the two reads and counted by neither.
        std::vector<std::shared_ptr<const BlockPartition>> parts{live};
        for (const auto &w : retired)
            parts.push_back(w.lock());
        std::uint64_t total = freedBytes->load();
        for (const auto &p : parts) {
            if (p)
                total += partitionBytes(*p);
        }
        return total;
    }

    static std::uint64_t
    partitionBytes(const BlockPartition &p)
    {
        const BytesMoved b = p.bytesMoved();
        return b.gather + b.scatter;
    }
};

std::vector<VertexId>
pickSources(const EdgeList &el, std::uint64_t seed)
{
    const std::vector<std::uint32_t> deg = el.outDegrees();
    std::vector<VertexId> ids(deg.size());
    std::iota(ids.begin(), ids.end(), 0);
    const std::size_t top = std::min<std::size_t>(kTopDegree, ids.size());
    std::partial_sort(ids.begin(), ids.begin() + top, ids.end(),
                      [&](VertexId a, VertexId b) {
                          return deg[a] != deg[b] ? deg[a] > deg[b] : a < b;
                      });
    ids.resize(top);
    std::mt19937_64 rng(seed);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(std::min<std::size_t>(kSourcePool, ids.size()));
    return ids;
}

GraphVersion
makeVersion(const GraphSpec &g, const std::set<std::string> &algos,
            double scale, std::uint64_t seed, const std::string &dir,
            unsigned index)
{
    Dataset ds = makeDataset(g.key, scale, seed);
    const EdgeList el =
        g.symmetric ? ds.graph.symmetrized() : std::move(ds.graph);

    GraphVersion v;
    v.path = dir + "/" + g.name + "-v" + std::to_string(index) +
             (g.packed ? ".abcz" : ".bin");
    if (g.packed)
        saveEdgeListPacked(el, v.path);
    else
        saveEdgeListBinary(el, v.path);
    v.vertices = el.numVertices();
    v.edges = el.numEdges();
    v.sources = pickSources(el, seed);

    // Reference solves run concurrently; none of them is timed.
    std::vector<std::future<void>> work;
    if (algos.count("pr"))
        work.push_back(std::async(std::launch::async, [&] {
            v.pr = pagerankReference(el, kAlpha, kRefTolerance);
        }));
    if (algos.count("cc"))
        work.push_back(std::async(std::launch::async,
                                  [&] { v.cc = ccReference(el); }));
    // Map nodes are created here, on this thread; each task writes only
    // its own node.
    for (VertexId s : v.sources) {
        if (algos.count("sssp")) {
            std::vector<double> &out = v.sssp[s];
            work.push_back(std::async(std::launch::async, [&out, &el, s] {
                out = dijkstraReference(el, s);
            }));
        }
        if (algos.count("bfs")) {
            std::vector<double> &out = v.bfs[s];
            work.push_back(std::async(std::launch::async, [&out, &el, s] {
                out = bfsReference(el, s);
            }));
        }
    }
    for (auto &w : work)
        w.get();
    return v;
}

// ------------------------------------------------------------ checks

/**
 * PageRank passes when its L1 distance to the exact fixpoint is within
 * this share of the fixpoint's rank mass.  The equivalence tests' 1e-6
 * max-abs bound goes with tolerance 1e-12; at the workloads' 1e-7 the
 * engines' measured max-abs error reaches 1e-4 and their L1 error
 * 0.15-2% of the mass (README.md, "Correctness gate").  A permutation
 * error, lost rank mass, an all-zero answer or an early stop all land
 * far above 5%.
 */
constexpr double kPageRankL1Share = 0.05;

/** @return whether `got` matches; `err` gets L1/mass (pr) or max-abs. */
bool
verify(const GraphVersion &gv, const std::string &algo, VertexId source,
       const std::vector<double> &got, double *err)
{
    const std::vector<double> *ref = nullptr;
    if (algo == "pr")
        ref = &gv.pr;
    else if (algo == "cc")
        ref = &gv.cc;
    else if (algo == "sssp")
        ref = &gv.sssp.at(source);
    else if (algo == "bfs")
        ref = &gv.bfs.at(source);
    *err = INFINITY;
    if (!ref || got.size() != ref->size())
        return false;
    double l1 = 0.0;
    double max_abs = 0.0;
    for (std::size_t v = 0; v < got.size(); v++) {
        const double d = std::abs(got[v] - (*ref)[v]);
        l1 += d;
        max_abs = std::max(max_abs, d);
    }
    if (algo == "pr") {
        const double mass =
            std::accumulate(ref->begin(), ref->end(), 0.0);
        *err = l1 / mass;
        return *err <= kPageRankL1Share;
    }
    *err = max_abs;
    return max_abs == 0.0;   // sssp, bfs and cc are exact
}

// ------------------------------------------------------------ service

struct Service
{
    std::shared_ptr<Executor> executor;
    std::unique_ptr<GraphRegistry> registry;
    std::unique_ptr<JobManager> manager;   //!< destroyed before registry
};

struct SetupTiming
{
    double total = 0.0;
    double load = 0.0;
    double partition = 0.0;
    double registryAdd = 0.0;
    double managerStart = 0.0;
};

/** graph layer: file -> EdgeList -> BlockPartition. */
std::shared_ptr<const BlockPartition>
buildPartition(GraphState &gs, const std::string &path, SpanRecorder &rec,
               std::uint64_t request, std::uint64_t parent, SetupTiming *t)
{
    const GraphSpec &g = *gs.spec;
    std::shared_ptr<const BlockPartition> part;
    const double t0 = nowSeconds();
    double t1 = t0;
    {
        EdgeList el;
        {
            Span s(rec, "graph.load", request, parent);
            el = g.packed ? loadEdgeListPacked(path)
                          : loadEdgeListBinary(path);
        }
        t1 = nowSeconds();
        Span s(rec, "graph.partition", request, parent);
        part.reset(new BlockPartition(el, kBlockSize, g.layout),
                   [freed = gs.freedBytes](const BlockPartition *p) {
                       *freed += GraphState::partitionBytes(*p);
                       delete p;
                   });
    }
    t->load += t1 - t0;
    t->partition += nowSeconds() - t1;
    return part;
}

/** Input files on disk -> graphs registered, manager accepting jobs. */
std::unique_ptr<Service>
startService(const WorkloadSpec &spec,
             std::vector<std::unique_ptr<GraphState>> &graphs,
             SpanRecorder &rec, SetupTiming *t)
{
    const std::uint64_t request = rec.enabled() ? rec.nextId() : 0;
    const double t0 = nowSeconds();
    Span root(rec, "bench.setup", request);
    auto svc = std::make_unique<Service>();
    svc->registry = std::make_unique<GraphRegistry>();
    for (auto &gs : graphs) {
        gs->current = 0;
        {
            // The last set-up's partitions go before this one is built,
            // so the peak-RSS mark never holds two set-ups' graphs.
            std::lock_guard<std::mutex> lock(gs->loadMtx);
            gs->live.reset();
            gs->retired.clear();
        }
        auto part = buildPartition(*gs, gs->versions[0].path, rec, request,
                                   root.id(), t);
        const double a0 = nowSeconds();
        {
            Span s(rec, "serve.registry_add", request, root.id());
            svc->registry->add(gs->spec->name, part);
        }
        t->registryAdd += nowSeconds() - a0;
        gs->fingerprint = svc->registry->fingerprint(gs->spec->name);
        std::lock_guard<std::mutex> lock(gs->loadMtx);
        gs->live = std::move(part);
    }
    const double m0 = nowSeconds();
    {
        Span s(rec, "serve.manager_start", request, root.id());
        svc->executor = std::make_shared<Executor>(kThreads);
        ServeConfig cfg;
        cfg.workers = spec.workers;
        cfg.executor = svc->executor;
        for (const auto &[tenant, weight] : spec.weights)
            cfg.tenantQos[tenant].weight = weight;
        svc->manager = std::make_unique<JobManager>(*svc->registry, cfg);
    }
    t->managerStart = nowSeconds() - m0;
    t->total = nowSeconds() - t0;
    return svc;
}

// ------------------------------------------------------------ clients

struct OpRecord
{
    bool load = false;
    bool ok = false;
    bool done = false;        //!< RUN reached Done with a result
    bool ran = false;         //!< an engine executed (not a cache hit)
    const JobKind *kind = nullptr;
    double latency = 0.0;     //!< request to result (or LOAD) seconds
    double submitSeconds = 0.0;
    double resultSeconds = 0.0;
    double partitionSeconds = 0.0;   //!< LOAD only
    JobStatus status;
    EngineReport report;
};

struct Counters
{
    double cpu = 0.0;
    Executor::Stats exec;
    std::uint64_t activations = 0;
    std::uint64_t staleDiscards = 0;
    std::uint64_t foldbacks = 0;
    std::uint64_t traceDropped = 0;
    std::uint64_t bytesMoved = 0;
    ServeStats serve;
};

std::uint64_t
obsCounter(const char *name)
{
    return MetricsRegistry::global().counter(name).value();
}

struct Phase
{
    std::vector<OpRecord> ops;
    double wall = 0.0;
    Counters before;
    Counters after;
};

class Bench
{
  public:
    Bench(const RunConfig &cfg, const WorkloadSpec &spec)
        : cfg_(cfg), spec_(spec)
    {
    }

    RunResult run();

  private:
    GraphState &graph(const char *name);
    void generateInputs();
    void printHost() const;
    OpRecord runJob(const JobKind &k, const std::string &tenant,
                    std::uint64_t op, SpanRecorder &rec);
    OpRecord runLoad(GraphState &gs, SpanRecorder &rec);
    OpRecord runOp(unsigned client, std::uint64_t op, SpanRecorder &rec);
    bool warmUp();
    Counters snapshot() const;
    Phase runPhase(SpanRecorder &rec);
    void addEndToEnd(const Phase &p, std::vector<Metric> &out) const;
    void addPerLayer(const Phase &p, const Phase &untraced,
                     const SpanRecorder &rec,
                     std::vector<Metric> &out) const;

    const RunConfig &cfg_;
    const WorkloadSpec &spec_;
    std::vector<std::unique_ptr<GraphState>> graphs_;
    std::unique_ptr<Service> svc_;
    std::vector<SetupTiming> setups_;
    std::mutex printMtx_;
    double rssBaselineMb_ = 0.0;
    double worstPageRankShare_ = 0.0;   //!< printMtx_
    unsigned mismatches_ = 0;           //!< printMtx_
    std::string firstFailure_;          //!< printMtx_
};

GraphState &
Bench::graph(const char *name)
{
    for (auto &g : graphs_) {
        if (std::string(g->spec->name) == name)
            return *g;
    }
    std::fprintf(stderr, "perfbench: no graph '%s'\n", name);
    std::abort();
}

void
Bench::generateInputs()
{
    for (const GraphSpec &g : spec_.graphs) {
        auto gs = std::make_unique<GraphState>();
        gs->spec = &g;
        for (const JobKind &k : spec_.cycle) {
            if (std::string(k.graph) == g.name)
                gs->algos.insert(k.algo);
        }
        const double scale = cfg_.smoke ? g.smokeScale : g.scale;
        for (unsigned v = 0; v < g.versions; v++) {
            // Distinct seeds per graph and version, all from --seed.
            const std::uint64_t seed =
                cfg_.seed * 1000003ULL + graphs_.size() * 101 + v;
            gs->versions.push_back(makeVersion(g, gs->algos, scale, seed,
                                               cfg_.workDir, v));
        }
        graphs_.push_back(std::move(gs));
    }
}

OpRecord
Bench::runJob(const JobKind &k, const std::string &tenant,
              std::uint64_t op, SpanRecorder &rec)
{
    OpRecord r;
    r.kind = &k;
    GraphState &gs = graph(k.graph);
    JobManager &m = *svc_->manager;

    JobRequest req;
    req.graph = k.graph;
    req.algo = k.algo;
    req.engine = k.engine;
    req.tenant = tenant;
    req.options.tolerance = kTolerance;
    req.options.numThreads = kThreads;
    req.options.schedule = kSchedule;
    req.allowCached = k.mode == Mode::Cached;
    req.allowWarmStart = k.mode != Mode::Cold;
    const bool sourced = req.algo == "sssp" || req.algo == "bfs";

    const std::uint64_t request = rec.enabled() ? rec.nextId() : 0;
    unsigned version = 0;
    JobManager::Submitted sub;
    std::shared_ptr<const JobResult> res;
    double wait_end = 0.0;
    std::uint64_t wait_span = 0;
    {
        Span job(rec, "bench.job", request);
        const double t0 = nowSeconds();
        {
            std::shared_lock<std::shared_mutex> lock(gs.gate);
            version = gs.current;
            const auto &sources = gs.versions[version].sources;
            if (sourced)
                req.source =
                    sources[(op / spec_.cycle.size()) % sources.size()];
            Span s(rec, "serve.submit", request, job.id());
            sub = m.submit(req);
        }
        r.submitSeconds = nowSeconds() - t0;
        if (sub.ok()) {
            {
                Span s(rec, "serve.wait", request, job.id());
                wait_span = s.id();
                m.wait(sub.id);
                wait_end = nowSeconds();
            }
            {
                Span s(rec, "serve.status", request, job.id());
                r.status = *m.status(sub.id);
            }
            const double r0 = nowSeconds();
            {
                Span s(rec, "serve.result", request, job.id());
                res = m.result(sub.id);
            }
            r.resultSeconds = nowSeconds() - r0;
        }
        r.latency = nowSeconds() - t0;
    }
    if (!sub.ok()) {
        std::lock_guard<std::mutex> lock(printMtx_);
        if (mismatches_++ < kMaxMismatchLines)
            printFailure(&firstFailure_,
                         "FAILED %s: %s %s on %s rejected (%s)\n",
                         spec_.name, k.algo, k.engine, k.graph,
                         to_string(sub.error));
        return r;
    }

    r.done = r.status.state == JobState::Done && res != nullptr;
    r.ran = r.done && !r.status.cacheHit;
    if (res)
        r.report = res->report;
    if (rec.enabled() && r.ran) {
        const std::uint64_t run = rec.addDerived(
            "serve.run", wait_end, r.status.runSeconds, wait_span, request);
        rec.addDerived("core.engine", wait_end, r.report.seconds, run,
                       request);
        rec.addDerived("serve.queue", wait_end - r.status.runSeconds,
                       r.status.queuedSeconds, wait_span, request);
    }

    double err = 0.0;
    bool match = false;
    {
        Span s(rec, "bench.check", request);
        match = r.done &&
                verify(gs.versions[version], req.algo, req.source,
                       res->values, &err);
    }
    r.ok = match && r.status.converged;
    std::lock_guard<std::mutex> lock(printMtx_);
    if (req.algo == "pr" && r.done)
        worstPageRankShare_ = std::max(worstPageRankShare_, err);
    if (!r.ok && mismatches_++ < kMaxMismatchLines) {
        printFailure(&firstFailure_,
                     "MISMATCH %s job=%llu algo=%s engine=%s graph=%s "
                     "v%u source=%u state=%s converged=%d %s=%.6g "
                     "error='%s'\n",
                     spec_.name, static_cast<unsigned long long>(sub.id),
                     k.algo, k.engine, k.graph, version, req.source,
                     to_string(r.status.state), r.status.converged ? 1 : 0,
                     req.algo == "pr" ? "l1_share" : "max_err", err,
                     r.status.error.c_str());
    }
    return r;
}

OpRecord
Bench::runLoad(GraphState &gs, SpanRecorder &rec)
{
    OpRecord r;
    r.load = true;
    const std::uint64_t request = rec.enabled() ? rec.nextId() : 0;
    std::lock_guard<std::mutex> load_lock(gs.loadMtx);
    const unsigned next = (gs.current + 1) % gs.versions.size();
    const double t0 = nowSeconds();
    Span root(rec, "bench.load", request);
    SetupTiming t;
    auto part = buildPartition(gs, gs.versions[next].path, rec, request,
                               root.id(), &t);
    r.partitionSeconds = t.partition;
    {
        std::unique_lock<std::shared_mutex> lock(gs.gate);
        Span s(rec, "serve.registry_add", request, root.id());
        svc_->registry->add(gs.spec->name, part);
        const std::uint64_t old = gs.fingerprint;
        gs.fingerprint = svc_->registry->fingerprint(gs.spec->name);
        gs.current = next;
        r.ok = gs.fingerprint != old &&
               svc_->registry->get(gs.spec->name) == part;
    }
    std::erase_if(gs.retired, [](const auto &w) { return w.expired(); });
    gs.retired.push_back(gs.live);
    gs.live = std::move(part);
    r.latency = nowSeconds() - t0;
    if (!r.ok) {
        std::lock_guard<std::mutex> lock(printMtx_);
        if (mismatches_++ < kMaxMismatchLines)
            printFailure(&firstFailure_,
                         "MISMATCH %s LOAD %s v%u: fingerprint unchanged\n",
                         spec_.name, gs.spec->name, next);
    }
    return r;
}

OpRecord
Bench::runOp(unsigned client, std::uint64_t op, SpanRecorder &rec)
{
    // Clients start at different points of the shared cycle, and their
    // LOADs are staggered, so the mix at any moment is the whole cycle.
    const std::uint64_t slot = op + 17ULL * client;
    if (spec_.loadEvery && slot % spec_.loadEvery == spec_.loadEvery - 1)
        return runLoad(graph(spec_.graphs.back().name), rec);
    const JobKind &k = spec_.cycle[(op + 5ULL * client) % spec_.cycle.size()];
    return runJob(k, spec_.clientTenants[client], op, rec);
}

bool
Bench::warmUp()
{
    // First touch of engine state, pool start-up and cache priming:
    // every distinct kind once, a LOAD when the workload has them,
    // then the kinds again.  None of it is measured.
    SpanRecorder off(false);
    std::set<std::tuple<std::string, std::string, std::string, Mode>> seen;
    std::vector<const JobKind *> kinds;
    for (const JobKind &k : spec_.cycle) {
        if (seen.emplace(k.graph, k.algo, k.engine, k.mode).second)
            kinds.push_back(&k);
    }
    bool ok = true;
    const int passes = spec_.loadEvery ? 2 : 1;
    for (int pass = 0; pass < passes; pass++) {
        for (std::size_t i = 0; i < kinds.size(); i++)
            ok &= runJob(*kinds[i], spec_.clientTenants[0], i, off).ok;
        if (spec_.loadEvery && pass == 0)
            ok &= runLoad(graph(spec_.graphs.back().name), off).ok;
    }
    return ok;
}

Counters
Bench::snapshot() const
{
    Counters c;
    c.cpu = processCpuSeconds();
    c.exec = svc_->executor->stats();
    c.activations = obsCounter("scheduler.activations");
    c.staleDiscards = obsCounter("scheduler.stale_discards");
    c.foldbacks = obsCounter("engine.accum.foldbacks");
    c.traceDropped = obsCounter("obs.trace.dropped");
    for (const auto &g : graphs_)
        c.bytesMoved += g->bytesMoved();
    c.serve = svc_->manager->stats();
    return c;
}

Phase
Bench::runPhase(SpanRecorder &rec)
{
    Phase p;
    const unsigned clients =
        static_cast<unsigned>(spec_.clientTenants.size());
    std::vector<std::vector<OpRecord>> per_client(clients);
    p.before = snapshot();
    const double t0 = nowSeconds();
    const double deadline = t0 + cfg_.seconds;
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; c++) {
            threads.emplace_back([&, c] {
                for (std::uint64_t op = 0; nowSeconds() < deadline; op++)
                    per_client[c].push_back(runOp(c, op, rec));
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    p.wall = nowSeconds() - t0;
    p.after = snapshot();
    for (auto &ops : per_client)
        p.ops.insert(p.ops.end(), ops.begin(), ops.end());
    return p;
}

// ------------------------------------------------------------ statistics

struct Pct
{
    double value = 0.0;
    std::size_t n = 0;
    std::size_t beyond = 0;   //!< samples strictly above value
};

/** Linear-interpolated percentile, q in [0, 1]. */
Pct
percentile(std::vector<double> v, double q)
{
    Pct p;
    p.n = v.size();
    if (v.empty())
        return p;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    p.value = v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    p.beyond = static_cast<std::size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), p.value));
    return p;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5).value;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** snprintf into a std::string (report notes). */
template <class... Args>
std::string
fmt(const char *format, Args... args)
{
    char buf[192];
    std::snprintf(buf, sizeof buf, format, args...);
    return buf;
}

std::string
pctNote(const Pct &p)
{
    return fmt(p.beyond >= 10 || p.value == 0.0
                   ? "n=%zu beyond=%zu"
                   : "n=%zu beyond=%zu: tail unresolved (<10 beyond)",
               p.n, p.beyond);
}

void
emit(std::vector<Metric> &out, const std::string &name, double value,
     const char *unit, const std::string &note = "")
{
    out.push_back(Metric{name, value, unit});
    std::printf("metric %-34s %16.6f %-6s %s\n", name.c_str(), value, unit,
                note.c_str());
}

/** `field` of every RUN that reached Done (engine runs only if ran_only). */
std::vector<double>
collect(const std::vector<OpRecord> &ops, bool ran_only,
        double (*field)(const OpRecord &))
{
    std::vector<double> v;
    for (const OpRecord &r : ops) {
        if (!r.load && r.done && (!ran_only || r.ran))
            v.push_back(field(r));
    }
    return v;
}

double
latencyOf(const OpRecord &r)
{
    return r.latency;
}

void
Bench::addEndToEnd(const Phase &p, std::vector<Metric> &out) const
{
    std::vector<double> setup;
    for (const SetupTiming &t : setups_)
        setup.push_back(t.total);
    emit(out, "setup_s", median(setup), "s",
         fmt("median of %zu set-ups, min %.4f max %.4f", setup.size(),
             *std::min_element(setup.begin(), setup.end()),
             *std::max_element(setup.begin(), setup.end())));

    const auto lat = collect(p.ops, false, latencyOf);
    const Pct p50 = percentile(lat, 0.5);
    const Pct p99 = percentile(lat, 0.99);
    emit(out, "job_p50_ms", p50.value * 1e3, "ms", pctNote(p50));
    emit(out, "job_p99_ms", p99.value * 1e3, "ms", pctNote(p99));

    std::size_t runs = 0, ok_runs = 0, ok_ops = 0;
    for (const OpRecord &r : p.ops) {
        ok_ops += r.ok;
        if (!r.load) {
            runs++;
            ok_runs += r.ok;
        }
    }
    emit(out, "jobs_per_s", ratio(ok_runs, p.wall), "jobs/s",
         fmt("%zu correct jobs / %.3f s", ok_runs, p.wall));
    emit(out, "cpu_ms_per_job",
         ratio(p.after.cpu - p.before.cpu, runs) * 1e3, "ms");
    emit(out, "peak_rss_mb", peakRssMb() - rssBaselineMb_, "MB",
         fmt("VmHWM over set-up and jobs above the %.1f MB resident "
             "after generation",
             rssBaselineMb_));
    emit(out, "ok_frac", ratio(ok_ops, p.ops.size()), "ratio",
         fmt("%zu of %zu operations", ok_ops, p.ops.size()));
}

void
Bench::addPerLayer(const Phase &p, const Phase &untraced,
                   const SpanRecorder &rec, std::vector<Metric> &out) const
{
    const Counters &a = p.before;
    const Counters &b = p.after;
    auto p50 = [&p](bool ran_only, double (*field)(const OpRecord &)) {
        return median(collect(p.ops, ran_only, field));
    };
    double runs = 0.0, jobs_ran = 0.0, engine_s = 0.0;
    double updates = 0.0, accum_updates = 0.0;
    std::vector<double> load_part;
    for (const OpRecord &r : p.ops) {
        if (r.load)
            load_part.push_back(r.partitionSeconds);
        if (r.load || !r.done)
            continue;
        runs++;
        if (!r.ran)
            continue;
        jobs_ran++;
        engine_s += r.report.seconds;
        const auto vu = static_cast<double>(r.report.vertexUpdates);
        updates += vu;
        if (std::string(r.kind->engine) == "accum")
            accum_updates += vu;
    }
    std::vector<double> load, part, add;
    for (const SetupTiming &t : setups_) {
        load.push_back(t.load);
        part.push_back(t.partition);
        add.push_back(t.registryAdd);
    }

    // graph
    emit(out, "graph.load_s", median(load), "s", "set-up, all graphs");
    emit(out, "graph.partition_s", median(part), "s",
         load_part.empty()
             ? std::string("set-up, all graphs")
             : fmt("set-up, all graphs; LOAD partition p50=%.6f s n=%zu",
                   median(load_part), load_part.size()));
    double gbpe = 0.0, edges = 0.0;
    for (const auto &g : graphs_) {
        const auto e = static_cast<double>(g->live->numEdges());
        gbpe += g->live->gatherBytesPerEdge() * e;
        edges += e;
    }
    emit(out, "graph.gather_bytes_per_edge", ratio(gbpe, edges), "B/edge",
         "edge-weighted over registered graphs");
    const auto bytes = static_cast<double>(b.bytesMoved - a.bytesMoved);
    emit(out, "graph.bytes_moved_mb_per_job", ratio(bytes, jobs_ran) / 1e6,
         "MB", fmt("%.0f bytes over %.0f engine runs", bytes, jobs_ran));
    const double gbps = ratio(bytes, engine_s) / 1e9;
    emit(out, "graph.gbps", gbps, "GB/s", "bytesMoved / engine seconds");
    emit(out, "graph.bw_frac", ratio(gbps, cfg_.host.triadGBps), "ratio",
         fmt("of triad %.3f GB/s", cfg_.host.triadGBps));

    // core: p50 per engine run
    emit(out, "core.engine_ms",
         p50(true, [](const OpRecord &r) { return r.report.seconds; }) * 1e3,
         "ms", "EngineReport::seconds, p50");
    emit(out, "core.epochs",
         p50(true, [](const OpRecord &r) { return r.report.epochs; }),
         "epochs", "p50");
    emit(out, "core.vertex_updates", p50(true, [](const OpRecord &r) {
             return static_cast<double>(r.report.vertexUpdates);
         }),
         "count", "p50 per job");
    emit(out, "core.edge_traversals", p50(true, [](const OpRecord &r) {
             return static_cast<double>(r.report.edgeTraversals);
         }),
         "count", "p50 per job");
    emit(out, "core.scatter_writes", p50(true, [](const OpRecord &r) {
             return static_cast<double>(r.report.scatterWrites);
         }),
         "count", "p50 per job");
    emit(out, "core.updates_per_s", ratio(updates, engine_s), "1/s",
         "vertex updates / engine seconds");
    const auto folds = static_cast<double>(b.foldbacks - a.foldbacks);
    emit(out, "core.accum.foldback_frac",
         ratio(folds, accum_updates + folds), "ratio",
         accum_updates == 0.0
             ? std::string("zero: no accum engine runs in this workload")
             : fmt("%.0f foldbacks / %.0f claims", folds,
                   accum_updates + folds));
    const auto acts = static_cast<double>(b.activations - a.activations);
    emit(out, "core.sched.activations", ratio(acts, jobs_ran), "count",
         "per engine run");
    const auto stale = static_cast<double>(b.staleDiscards - a.staleDiscards);
    emit(out, "core.sched.stale_discard_frac", ratio(stale, acts), "ratio",
         fmt("%.0f / %.0f activations%s", stale, acts,
             stale == 0.0 ? "; zero: cyclic schedule keeps no heap" : ""));

    // runtime
    const auto tasks = static_cast<double>(b.exec.executed - a.exec.executed);
    const auto steals = static_cast<double>(b.exec.steals - a.exec.steals);
    emit(out, "runtime.tasks_per_job", ratio(tasks, jobs_ran), "count",
         "Executor::stats executed per engine run");
    emit(out, "runtime.steal_frac", ratio(steals, tasks), "ratio",
         fmt("%.0f steals / %.0f tasks", steals, tasks));
    emit(out, "runtime.cpu_util", ratio(b.cpu - a.cpu, engine_s), "ratio",
         "process CPU-s / engine wall-s");

    // serve
    emit(out, "serve.registry_add_ms", median(add) * 1e3, "ms",
         "set-up, all graphs");
    emit(out, "serve.submit_us",
         p50(false, [](const OpRecord &r) { return r.submitSeconds; }) * 1e6,
         "us", "p50");
    emit(out, "serve.result_us",
         p50(false, [](const OpRecord &r) { return r.resultSeconds; }) * 1e6,
         "us", "p50");
    emit(out, "serve.run_ms", p50(true, [](const OpRecord &r) {
             return r.status.runSeconds;
         }) * 1e3,
         "ms", "JobStatus::runSeconds, p50");
    const auto queued = collect(p.ops, true, [](const OpRecord &r) {
        return r.status.queuedSeconds;
    });
    const Pct q50 = percentile(queued, 0.5);
    const Pct q99 = percentile(queued, 0.99);
    emit(out, "serve.queue_wait_p50_ms", q50.value * 1e3, "ms", pctNote(q50));
    emit(out, "serve.queue_wait_p99_ms", q99.value * 1e3, "ms", pctNote(q99));
    emit(out, "serve.overhead_ms", p50(true, [](const OpRecord &r) {
             return r.latency - r.status.queuedSeconds - r.status.runSeconds;
         }) * 1e3,
         "ms", "request-to-result - queued - run, p50");
    const auto hits = static_cast<double>(b.serve.cacheHits -
                                          a.serve.cacheHits);
    const auto warm = static_cast<double>(b.serve.warmStarts -
                                          a.serve.warmStarts);
    const auto submitted = static_cast<double>(b.serve.submitted -
                                               a.serve.submitted);
    const auto rejected = static_cast<double>(b.serve.rejected -
                                              a.serve.rejected);
    emit(out, "serve.cache_hit_frac", ratio(hits, runs), "ratio",
         fmt("%.0f / %.0f jobs%s", hits, runs,
             hits == 0.0 ? "; zero: cold jobs only" : ""));
    emit(out, "serve.warm_start_frac", ratio(warm, runs), "ratio",
         fmt("%.0f / %.0f jobs%s", warm, runs,
             warm == 0.0 ? "; zero: cold jobs only" : ""));
    emit(out, "serve.rejected_frac", ratio(rejected, submitted), "ratio",
         fmt("%.0f / %.0f submissions%s", rejected, submitted,
             rejected == 0.0 ? "; zero: closed loop never fills the queue"
                             : ""));

    // obs
    const auto traced_lat = collect(p.ops, false, latencyOf);
    const auto plain_lat = collect(untraced.ops, false, latencyOf);
    emit(out, "obs.trace_overhead_frac",
         ratio(median(traced_lat), median(plain_lat)) - 1.0, "ratio",
         fmt("traced p50 %.3f ms (n=%zu) / untraced p50 %.3f ms (n=%zu) - 1",
             median(traced_lat) * 1e3, traced_lat.size(),
             median(plain_lat) * 1e3, plain_lat.size()));
    const auto dropped = static_cast<double>(b.traceDropped - a.traceDropped);
    emit(out, "obs.trace_dropped", dropped, "count",
         dropped == 0.0 ? "zero: the program's TraceRecorder stays off; "
                          "bench spans are unbounded"
                        : "");

    std::printf("self time by layer (traced set-up + phase, %zu spans):\n",
                rec.spans().size());
    for (const auto &[layer, secs] : rec.selfSecondsByLayer())
        std::printf("  self %-10s %12.6f s\n", layer.c_str(), secs);
    for (const auto &[name, secs] : rec.secondsByName())
        std::printf("  span %-22s %12.6f s\n", name.c_str(), secs);
}

void
Bench::printHost() const
{
    const HostInfo &h = cfg_.host;
    const double mib = 1024.0 * 1024.0;
    std::printf("host nproc=%u build=%s GRAPHABCD_OBS=%s commit=%s "
                "llc_mib=%.1f triad_gbps=%.3f (arrays %.0f MiB = %.1fx LLC)\n",
                h.nproc, h.buildType.c_str(), h.obs ? "ON" : "OFF",
                h.commit.c_str(), static_cast<double>(h.llcBytes) / mib,
                h.triadGBps, static_cast<double>(h.triadBytes) / mib,
                ratio(static_cast<double>(h.triadBytes),
                      static_cast<double>(h.llcBytes)));
    for (const auto &g : graphs_) {
        const auto p = g->live;
        // One engine run's working set: topology at this layout's
        // density, one edge-carried double and one vertex value.
        const double bytes =
            static_cast<double>(p->numEdges()) *
                (p->gatherBytesPerEdge() + p->scatterBytesPerEdge() + 8.0) +
            static_cast<double>(p->numVertices()) * 8.0;
        std::printf("graph %s %s x%g: V=%u E=%llu layout=%s/%s versions=%zu "
                    "footprint_mib=%.1f (%.2fx LLC %.1f MiB)\n",
                    g->spec->name, g->spec->key,
                    cfg_.smoke ? g->spec->smokeScale : g->spec->scale,
                    p->numVertices(),
                    static_cast<unsigned long long>(p->numEdges()),
                    to_string(p->layout()), to_string(p->reorder()),
                    g->versions.size(), bytes / mib,
                    ratio(bytes, static_cast<double>(h.llcBytes)),
                    static_cast<double>(h.llcBytes) / mib);
    }
}

RunResult
Bench::run()
{
    RunResult result;
    const double g0 = nowSeconds();
    generateInputs();
    std::printf("inputs generated with references in %.3f s (untimed)\n",
                nowSeconds() - g0);
    if (!resetPeakRss())
        std::printf("warning: could not reset the peak-RSS mark\n");
    // What is resident now is the benchmark's own: binary, generated
    // inputs' references.  peak_rss_mb is what the program adds to it.
    rssBaselineMb_ = residentMb();

    SpanRecorder rec(cfg_.trace);
    for (unsigned i = 0; i < (cfg_.smoke ? 2 : spec_.setupReps); i++) {
        svc_.reset();
        SetupTiming t;
        svc_ = startService(spec_, graphs_, rec, &t);
        setups_.push_back(t);
    }
    printHost();

    const bool warm_ok = warmUp();
    if (!warm_ok)
        printFailure(&firstFailure_,
                     "FAILED %s: a warm-up operation was wrong\n",
                     spec_.name);

    SpanRecorder off(false);
    const Phase plain = runPhase(off);
    std::vector<Phase> phases;
    if (cfg_.trace) {
        Phase traced = runPhase(rec);
        addPerLayer(traced, plain, rec, result.metrics);
        phases.push_back(std::move(traced));
        if (!cfg_.tracePath.empty() && !rec.writeChromeTrace(cfg_.tracePath))
            std::printf("warning: could not write %s\n",
                        cfg_.tracePath.c_str());
        else
            std::printf("trace written to %s\n", cfg_.tracePath.c_str());
    } else {
        addEndToEnd(plain, result.metrics);
    }
    phases.push_back(plain);

    for (const Phase &p : phases) {
        for (const OpRecord &r : p.ops) {
            result.attempted++;
            result.failed += !r.ok;
        }
    }
    result.correct = warm_ok && result.failed == 0 && result.attempted > 0;
    std::printf("check: %u wrong operations (%u printed); worst PageRank "
                "L1/mass %.6f (bound %.2f)\n",
                mismatches_, std::min(mismatches_, kMaxMismatchLines),
                worstPageRankShare_, kPageRankL1Share);
    svc_.reset();
    // The service logs its shutdown to stderr: repeat the first failure
    // after that, so the end of stderr names it.
    if (!firstFailure_.empty())
        std::fprintf(stderr, "first failure: %s", firstFailure_.c_str());
    return result;
}

} // namespace

bool
knownWorkload(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (name == s.name)
            return true;
    }
    return false;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (cfg.workload == s.name)
            return Bench(cfg, s).run();
    }
    return {};
}

} // namespace perfbench
