#include "serve/runner.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "algorithms/extras.hh"
#include "algorithms/label_propagation.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "fragment/engine.hh"
#include "harp/system.hh"
#include "runtime/executor.hh"
#include "support/fingerprint.hh"

namespace graphabcd {

namespace {

/** Translate a simulator report into the common EngineReport shape. */
EngineReport
fromSimReport(const SimReport &sim)
{
    EngineReport report;
    report.epochs = sim.epochs;
    report.blockUpdates = sim.blockUpdates;
    report.vertexUpdates = sim.vertexUpdates;
    report.edgeTraversals = sim.edgeTraversals;
    report.scatterWrites = sim.scatterWrites;
    report.converged = sim.converged;
    report.stopped = sim.stopped;
    report.seconds = sim.hostSeconds;
    return report;
}

template <typename Program>
RunOutcome
runWith(const BlockPartition &g, Program program, const JobRequest &req)
{
    RunOutcome out;
    if (req.engine == "serial") {
        SerialEngine<Program> engine(g, program, req.options);
        out.report = engine.run(out.values);
    } else if (req.engine == "async") {
        if constexpr (std::atomic<
                          typename Program::Value>::is_always_lock_free) {
            AsyncEngine<Program> engine(g, program, req.options);
            out.report = engine.run(out.values);
        } else {
            out.error = "algorithm '" + req.algo +
                        "' is not lock-free atomic; use engine=serial";
        }
    } else if (req.engine == "fragment") {
        FragmentEngine<Program> engine(g, program, req.options);
        out.report = engine.run(out.values);
    } else if (req.engine == "sim") {
        HarpConfig cfg;
        // Simulated DMA traffic tracks the real layout: a compressed
        // partition streams measurably fewer topology bytes per edge
        // than the plain 8-byte CSC record.
        cfg.layoutBytesPerEdge = g.gatherBytesPerEdge();
        HarpSystem<Program> system(g, program, req.options, cfg);
        out.report = fromSimReport(system.run(out.values));
    } else {
        out.error = "unknown engine '" + req.engine + "'";
    }
    return out;
}

/** engine=accum: the accumulative programs are separate types, so the
 *  algo dispatch is separate from runWith's. */
template <typename Program>
RunOutcome
runAccum(const BlockPartition &g, Program program, const JobRequest &req)
{
    RunOutcome out;
    AccumEngine<Program> engine(g, std::move(program), req.options);
    out.report = engine.run(out.values);
    return out;
}

RunOutcome
runAccumJob(const BlockPartition &g, const JobRequest &req)
{
    if (req.algo == "pr")
        return runAccum(g, PageRankAccumProgram(), req);
    if (req.algo == "sssp")
        return runAccum(g, SsspAccumProgram(req.source), req);
    if (req.algo == "bfs")
        return runAccum(g, BfsAccumProgram(req.source), req);
    if (req.algo == "cc")
        return runAccum(g, CcAccumProgram(), req);
    RunOutcome out;
    out.error = "algorithm '" + req.algo +
                "' has no accumulative (delta) form; use another engine";
    return out;
}

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

RunOutcome
runWedgeJob(const BlockPartition &g, const JobRequest &req)
{
    // Poll the stop token without ever touching the Progress sink:
    // from the watchdog's point of view this job is perfectly wedged,
    // yet it still cancels cooperatively.  The time cap is a safety
    // net for misconfigured drills, not part of the contract.
    RunOutcome out;
    const auto start = std::chrono::steady_clock::now();
    bool stopped = false;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::seconds(30)) {
        if (req.options.stop.stopRequested()) {
            stopped = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.values.assign(g.numVertices(), 0.0);
    out.report.stopped = stopped;
    out.report.converged = false;
    out.report.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
}

/** Algorithms whose fixpoint depends on JobRequest::source. */
bool
algoUsesSource(const std::string &algo)
{
    return algo == "sssp" || algo == "bfs" || algo == "ppr";
}

/**
 * Algorithms whose per-vertex values are themselves vertex ids (cc
 * component representatives, lp community labels).  Under a reorder
 * the engine computes labels in internal ids; the boundary translates
 * them so callers see original ids end to end.
 */
bool
algoValuesAreVertexIds(const std::string &algo)
{
    return algo == "cc" || algo == "lp";
}

} // namespace

RunOutcome
runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                std::shared_ptr<Executor> executor)
{
    // The pool is an execution resource, not a semantic option, so it
    // is injected here (per call) rather than fingerprinted.
    const JobRequest *effective = &req;
    JobRequest adjusted;
    auto mutableReq = [&]() -> JobRequest & {
        if (effective != &adjusted) {
            adjusted = req;
            effective = &adjusted;
        }
        return adjusted;
    };
    if (executor && !req.options.executor)
        mutableReq().options.executor = std::move(executor);

    // Permutation boundary (DESIGN.md §11): engines run in the
    // reordered internal id space, while requests and results speak
    // original ids.  Translate the source vertex and warm-start vector
    // on the way in and un-permute the values on the way out, so the
    // reorder is invisible to every caller (and to the ResultCache,
    // which stores original-id vectors).
    const VertexPermutation &perm = g.permutation();
    if (!perm.isIdentity()) {
        if (algoUsesSource(req.algo) && req.source < g.numVertices())
            mutableReq().source = perm.toInternal(req.source);
        if (req.options.warmStart &&
            req.options.warmStart->size() == g.numVertices()) {
            std::vector<double> warm =
                perm.valuesToInternal(*req.options.warmStart);
            // Id-valued warm starts carry original-id labels; the
            // engine expects internal ones.
            if (algoValuesAreVertexIds(req.algo)) {
                for (double &x : warm) {
                    const auto label = static_cast<VertexId>(x);
                    if (label < g.numVertices())
                        x = static_cast<double>(perm.toInternal(label));
                }
            }
            mutableReq().options.warmStart =
                std::make_shared<const std::vector<double>>(
                    std::move(warm));
        }
    }

    const JobRequest &r = *effective;
    RunOutcome out;
    if (r.engine == "wedge")
        out = runWedgeJob(g, r);
    else if (r.engine == "accum")
        out = runAccumJob(g, r);
    else if (r.algo == "pr")
        out = runWith(g, PageRankProgram(), r);
    else if (r.algo == "ppr")
        out = runWith(g, PersonalizedPageRankProgram(r.source), r);
    else if (r.algo == "sssp")
        out = runWith(g, SsspProgram(r.source), r);
    else if (r.algo == "bfs")
        out = runWith(g, BfsProgram(r.source), r);
    else if (r.algo == "cc")
        out = runWith(g, CcProgram(), r);
    else if (r.algo == "lp")
        out = runWith(g, LabelPropagationProgram(), r);
    else
        out.error = "unknown algorithm '" + r.algo + "'";

    if (!perm.isIdentity() && out.values.size() == g.numVertices()) {
        out.values = perm.valuesToOriginal(out.values);
        // cc/lp labels are vertex ids themselves, so the *values* need
        // the same translation as the positions.  The representative a
        // component gets is whichever member the reorder placed first —
        // consistent within a run, but not necessarily the minimum
        // original id.
        if (algoValuesAreVertexIds(req.algo)) {
            for (double &x : out.values) {
                const auto label = static_cast<VertexId>(x);
                if (label < g.numVertices())
                    x = static_cast<double>(perm.toOriginal(label));
            }
        }
    }
    return out;
}

bool
isRunnable(const JobRequest &req, std::string *why)
{
    static const char *const algos[] = {"pr",  "ppr", "sssp",
                                        "bfs", "cc",  "lp"};
    static const char *const engines[] = {"serial", "async", "fragment",
                                          "sim", "accum"};
    static const char *const accum_algos[] = {"pr", "sssp", "bfs", "cc"};
    bool algo_ok = false;
    for (const char *a : algos)
        algo_ok = algo_ok || req.algo == a;
    bool engine_ok = false;
    for (const char *e : engines)
        engine_ok = engine_ok || req.engine == e;
    // The watchdog drill engine exists only when explicitly enabled.
    if (req.engine == "wedge" && wedgeEngineEnabled())
        engine_ok = true;
    bool combo_ok = true;
    if (algo_ok && engine_ok && req.engine == "accum") {
        combo_ok = false;
        for (const char *a : accum_algos)
            combo_ok = combo_ok || req.algo == a;
    }
    if (!algo_ok && why)
        *why = "unknown algorithm '" + req.algo + "'";
    else if (!engine_ok && why)
        *why = "unknown engine '" + req.engine + "'";
    else if (!combo_ok && why)
        *why = "algorithm '" + req.algo +
               "' has no accumulative (delta) form";
    return algo_ok && engine_ok && combo_ok;
}

bool
inputsValid(const JobRequest &req, VertexId num_vertices, std::string *why)
{
    const double tol = req.options.tolerance;
    if (!std::isfinite(tol) || tol < 0.0) {
        if (why)
            *why = "tolerance must be finite and non-negative";
        return false;
    }
    if (algoUsesSource(req.algo) && req.source >= num_vertices) {
        if (why)
            *why = "source " + std::to_string(req.source) +
                   " is not a vertex of the graph";
        return false;
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
    fp.mix(algoUsesSource(req.algo)
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
    fp.mix(static_cast<std::uint64_t>(opt.numThreads));
    // The fragment cut changes the update schedule (hence the exact
    // floating-point trajectory), so it is part of the result identity.
    fp.mix(static_cast<std::uint64_t>(opt.fragments));
    return fp.value();
}

} // namespace graphabcd
