#include "serve/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <utility>

#include "algorithms/extras.hh"
#include "algorithms/label_propagation.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "harp/system.hh"
#include "runtime/executor.hh"
#include "support/fingerprint.hh"
#include "support/timer.hh"

namespace graphabcd {

namespace {

/**
 * The wedge engine: deliberately makes no progress, for exercising the
 * stall watchdog end to end (tests, the ci.sh stall drill).  Hidden
 * behind an environment gate so production clients cannot reach it by
 * mistyping an engine name.
 */
bool
wedgeEngineEnabled()
{
    const char *env = std::getenv("GRAPHABCD_ENABLE_WEDGE_ENGINE");
    return env != nullptr && *env != '\0';
}

// ------------------------------------------------------------ engines

enum class EngineKind { Serial, Async, Accum, Sim, Wedge };

constexpr std::pair<std::string_view, EngineKind> kEngines[] = {
    {"serial", EngineKind::Serial}, {"async", EngineKind::Async},
    {"accum", EngineKind::Accum},   {"sim", EngineKind::Sim},
    {"wedge", EngineKind::Wedge},
};

/** @return the engine called `name`, or null when there is none. */
const EngineKind *
findEngine(std::string_view name)
{
    for (const auto &[engine_name, kind] : kEngines) {
        if (engine_name == name)
            return &kind;
    }
    return nullptr;
}

/** The engines that run on pool threads: they run only the barrierless
 *  model, and only their results depend on the thread count. */
bool
threaded(EngineKind kind)
{
    return kind == EngineKind::Async || kind == EngineKind::Accum;
}

/** Runs program P on g for req, filling out. */
template <typename P>
using EngineFn = void (*)(const BlockPartition &g, const P &program,
                          const JobRequest &req, const HarpConfig &harp,
                          RunOutcome &out);

/** The engines constructed from (graph, program, options). */
template <typename Engine, typename P>
void
runEngine(const BlockPartition &g, const P &program, const JobRequest &req,
          const HarpConfig &, RunOutcome &out)
{
    out.report = Engine(g, program, req.options).run(out.values);
}

template <typename P>
void
runSim(const BlockPartition &g, const P &program, const JobRequest &req,
       const HarpConfig &harp, RunOutcome &out)
{
    // Simulated DMA traffic tracks the real layout: a compressed
    // partition streams measurably fewer topology bytes per edge than
    // the plain 8-byte CSC record.
    HarpConfig cfg = harp;
    cfg.layoutBytesPerEdge = g.gatherBytesPerEdge();
    out.sim = HarpSystem<P>(g, program, req.options, cfg).run(out.values);
    out.report = out.sim->engine;
}

template <typename P>
void
runWedge(const BlockPartition &g, const P &, const JobRequest &req,
         const HarpConfig &, RunOutcome &out)
{
    // Poll the stop token without ever touching the Progress sink:
    // from the watchdog's point of view this job is perfectly wedged,
    // yet it still cancels cooperatively.  The time cap is a safety
    // net for misconfigured drills, not part of the contract.
    const StopToken &stop = req.options.stop;
    Timer timer;
    while (timer.seconds() < 30.0 && !stop.stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    out.values.assign(g.numVertices(), 0.0);
    out.report.stopped = stop.stopRequested();
    out.report.seconds = timer.seconds();
}

/**
 * The one engine dispatch: the runner of req.engine for program type
 * P, or null (with the reason in *why) when that engine does not exist,
 * cannot run P or does not run the request's execution mode (the
 * threaded engines run only Async).  Eligibility on P is a compile-time
 * property of P.
 */
template <typename P>
EngineFn<P>
engineFor(const JobRequest &req, std::string *why)
{
    auto reject = [&](const std::string &reason) -> EngineFn<P> {
        if (why)
            *why = reason;
        return nullptr;
    };
    const EngineKind *kind = findEngine(req.engine);
    // The watchdog drill engine exists only when enabled.
    if (!kind || (*kind == EngineKind::Wedge && !wedgeEngineEnabled()))
        return reject("unknown engine '" + req.engine + "'");
    if (threaded(*kind) && req.options.mode != ExecMode::Async)
        return reject("mode '" + std::string(to_string(req.options.mode)) +
                      "' does not run on engine=" + req.engine +
                      "; engine=serial or engine=sim runs it");
    switch (*kind) {
      case EngineKind::Serial:
        return &runEngine<SerialEngine<P>, P>;
      case EngineKind::Async:
        if constexpr (std::atomic<typename P::Value>::is_always_lock_free)
            return &runEngine<AsyncEngine<P>, P>;
        else
            return reject("algorithm '" + req.algo +
                          "' is not lock-free atomic; use engine=serial");
      case EngineKind::Accum:
        if constexpr (Accumulable<P>)
            return &runEngine<AccumEngine<P>, P>;
        else
            return reject("algorithm '" + req.algo +
                          "' has no accumulative (delta) form; use "
                          "another engine");
      case EngineKind::Sim:
        return &runSim<P>;
      case EngineKind::Wedge:
        return &runWedge<P>;
    }
    return nullptr;
}

// --------------------------------------------------------- algorithms

/** A program reads a source vertex iff it has one. */
template <typename P>
constexpr bool kUsesSource = requires(const P p) { p.source; };

/** A program needs finite non-negative weights iff it says so. */
template <typename P>
constexpr bool kNeedsNonNegativeWeights =
    requires { requires P::needsNonNegativeWeights; };

template <typename P>
bool
runsOn(const JobRequest &req, std::string *why)
{
    return engineFor<P>(req, why) != nullptr;
}

template <typename P>
RunOutcome
runRow(const BlockPartition &g, const JobRequest &req,
       const HarpConfig &harp)
{
    if constexpr (kUsesSource<P>)
        return runProgram(g, P(req.source), req, harp);
    else
        return runProgram(g, P(), req, harp);
}

template <typename P>
constexpr AlgoInfo
row(std::string_view name, bool values_are_ids, bool symmetric,
    const char *value_name)
{
    return {name,       kUsesSource<P>, values_are_ids, symmetric,
            kNeedsNonNegativeWeights<P>, value_name, &runsOn<P>,
            &runRow<P>};
}

/**
 * The served algorithms: (name, values are vertex ids, wants symmetric
 * input, value name).  Whether one reads a source or needs
 * non-negative weights is derived from its program, and so is every
 * engine it can run on.
 */
constexpr AlgoInfo kAlgos[] = {
    row<PageRankProgram>("pr", false, false, "rank"),
    row<PersonalizedPageRankProgram>("ppr", false, false, "rank"),
    row<SsspProgram>("sssp", false, false, "distance"),
    row<BfsProgram>("bfs", false, false, "depth"),
    row<CcProgram>("cc", true, true, "component"),
    row<LabelPropagationProgram>("lp", true, true, "community"),
};

/** Move vertex-id labels (cc, lp values) across a reorder. */
void
translateLabels(std::vector<double> &values, const VertexPermutation &perm,
                bool to_original)
{
    for (double &x : values) {
        const auto v = static_cast<VertexId>(x);
        if (v < values.size())
            x = to_original ? perm.toOriginal(v) : perm.toInternal(v);
    }
}

} // namespace

template <typename Program>
RunOutcome
runProgram(const BlockPartition &g, const Program &program,
           const JobRequest &req, const HarpConfig &harp)
{
    RunOutcome out;
    if (EngineFn<Program> run = engineFor<Program>(req, &out.error))
        run(g, program, req, harp, out);
    return out;
}

template RunOutcome runProgram(const BlockPartition &,
                               const KCoreProgram &, const JobRequest &,
                               const HarpConfig &);
template RunOutcome runProgram(const BlockPartition &,
                               const ColoringProgram &,
                               const JobRequest &, const HarpConfig &);

const AlgoInfo *
findAlgo(std::string_view name)
{
    for (const AlgoInfo &algo : kAlgos) {
        if (algo.name == name)
            return &algo;
    }
    return nullptr;
}

std::span<const AlgoInfo>
servedAlgos()
{
    return kAlgos;
}

std::vector<std::string>
engineNames()
{
    std::vector<std::string> names;
    for (const auto &[name, kind] : kEngines)
        names.emplace_back(name);
    return names;
}

RunOutcome
runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                std::shared_ptr<Executor> executor, const HarpConfig &harp)
{
    const AlgoInfo *algo = findAlgo(req.algo);
    if (!algo) {
        RunOutcome out;
        out.error = "unknown algorithm '" + req.algo + "'";
        return out;
    }

    // The pool is an execution resource, not a semantic option, so it
    // is injected here (per call) rather than fingerprinted.
    JobRequest r = req;
    if (executor && !r.options.executor)
        r.options.executor = std::move(executor);

    // Permutation boundary (DESIGN.md §11): engines run in the
    // reordered internal id space, while requests and results speak
    // original ids.  Translate the source vertex and warm-start vector
    // on the way in and un-permute the values on the way out, so the
    // reorder is invisible to every caller (and to the ResultCache,
    // which stores original-id vectors).
    const VertexPermutation &perm = g.permutation();
    const VertexId n = g.numVertices();
    if (!perm.isIdentity()) {
        if (algo->usesSource && r.source < n)
            r.source = perm.toInternal(r.source);
        if (r.options.warmStart && r.options.warmStart->size() == n) {
            std::vector<double> warm =
                perm.valuesToInternal(*r.options.warmStart);
            // Id-valued warm starts carry original-id labels; the
            // engine expects internal ones.
            if (algo->valuesAreVertexIds)
                translateLabels(warm, perm, false);
            r.options.warmStart =
                std::make_shared<const std::vector<double>>(
                    std::move(warm));
        }
    }

    RunOutcome out = algo->run(g, r, harp);

    if (!perm.isIdentity() && out.values.size() == n) {
        out.values = perm.valuesToOriginal(out.values);
        // cc/lp labels are vertex ids themselves, so the *values* need
        // the same translation as the positions.  The representative a
        // component gets is whichever member the reorder placed first —
        // consistent within a run, but not necessarily the minimum
        // original id.
        if (algo->valuesAreVertexIds)
            translateLabels(out.values, perm, true);
    }
    return out;
}

bool
isRunnable(const JobRequest &req, std::string *why)
{
    const AlgoInfo *algo = findAlgo(req.algo);
    if (!algo) {
        if (why)
            *why = "unknown algorithm '" + req.algo + "'";
        return false;
    }
    return algo->runsOn(req, why);
}

bool
inputsValid(const JobRequest &req, const BlockPartition &g, std::string *why)
{
    auto reject = [&](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    const double tol = req.options.tolerance;
    if (!std::isfinite(tol) || tol < 0.0)
        return reject("tolerance must be finite and non-negative");
    if (!(req.options.maxEpochs > 0.0))
        return reject("max-epochs must be positive");
    if (req.options.numThreads == 0)
        return reject("threads must be positive");
    const AlgoInfo *algo = findAlgo(req.algo);
    if (algo && algo->usesSource && req.source >= g.numVertices()) {
        return reject("source " + std::to_string(req.source) +
                      " is not a vertex of the graph");
    }
    if (algo && algo->needsNonNegativeWeights && !g.nonNegativeWeights()) {
        return reject(std::string(algo->name) +
                      " needs finite non-negative edge weights");
    }
    return true;
}

std::uint64_t
jobFamilyFingerprint(std::uint64_t graph_fingerprint,
                     const JobRequest &req)
{
    Fingerprint fp;
    fp.mix(graph_fingerprint);
    fp.mix(std::string_view(req.algo));
    // The source vertex is part of the fixpoint only for sssp/bfs/ppr.
    // For source-less algorithms it is normalized to a sentinel:
    // mixing a stray source there is never a *wrong* hit, but it
    // splits one result family across cache entries, so equivalent
    // pagerank/cc/lp requests with different stray sources would miss
    // the ResultCache (and its warm-start path) for no reason.  The
    // sentinel cannot collide with a real source: VertexId is 32-bit.
    constexpr std::uint64_t kNoSource = ~std::uint64_t{0};
    const AlgoInfo *algo = findAlgo(req.algo);
    fp.mix(algo && algo->usesSource
               ? static_cast<std::uint64_t>(req.source)
               : kNoSource);
    return fp.value();
}

std::uint64_t
jobFingerprint(std::uint64_t graph_fingerprint, const JobRequest &req)
{
    Fingerprint fp;
    fp.mix(jobFamilyFingerprint(graph_fingerprint, req));
    fp.mix(std::string_view(req.engine));
    const EngineOptions &opt = req.options;
    fp.mix(static_cast<std::uint64_t>(opt.blockSize));
    fp.mix(static_cast<std::uint64_t>(opt.schedule));
    fp.mix(static_cast<std::uint64_t>(opt.mode));
    fp.mix(opt.tolerance);
    fp.mix(opt.maxEpochs);
    fp.mix(opt.seed);
    // Serial and simulated runs give the same result at every thread
    // count, so equal requests differing only in `threads=` share one
    // cache entry.
    const EngineKind *kind = findEngine(req.engine);
    if (kind && threaded(*kind))
        fp.mix(static_cast<std::uint64_t>(opt.numThreads));
    return fp.value();
}

} // namespace graphabcd
