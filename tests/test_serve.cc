/**
 * @file
 * Tests of the serve layer: the tenant-aware FairShareQueue (weighted
 * interleave, quotas, displacement shedding, deadline admission
 * control), stop tokens and halt-cause attribution, result-cache
 * LRU/TTL/fingerprinting, the graph registry, request validation, and
 * the JobManager end-to-end — concurrent jobs must match direct engine
 * runs, cancellation must not block other jobs, a saturated queue must
 * reject instead of deadlock, and the cancel-vs-finish races must keep
 * every counter and result field consistent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/stop_token.hh"
#include "graph/generators.hh"
#include "algorithms/extras.hh"
#include "algorithms/reference.hh"
#include "core/engine.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "serve/qos.hh"
#include "serve/result_cache.hh"
#include "serve/runner.hh"
#include "support/fingerprint.hh"
#include "support/timer.hh"

namespace graphabcd {
namespace {

/** Poll `pred` every 2ms until it holds or `timeout_s` elapses. */
template <typename Pred>
bool
waitUntil(Pred pred, double timeout_s = 10.0)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/** Registry name of the two-vertex cycle the endless requests run on. */
constexpr const char *kSwap = "swap";

/**
 * A request that never converges — cancel bait.  On a two-vertex cycle
 * held in one block, label propagation makes each vertex take the
 * other's old label on every update, so the labels swap forever while
 * the run keeps publishing progress.
 */
JobRequest
endlessRequest()
{
    JobRequest req;
    req.graph = kSwap;
    req.algo = "lp";
    req.engine = "serial";
    req.options.maxEpochs = 1e9;
    req.allowCached = false;
    req.allowWarmStart = false;
    return req;
}

// ---------------------------------------------------------------------
// FairShareQueue

TEST(FairShareQueue, WeightedInterleaveUnderBacklog)
{
    QosConfig cfg;
    cfg.capacity = 16;
    cfg.tenants["a"] = {3.0, 0, 0};
    cfg.tenants["b"] = {1.0, 0, 0};
    FairShareQueue<int> q(cfg);
    for (int v : {1, 2, 3, 4, 5, 6})
        ASSERT_EQ(q.tryPush(v, "a").outcome, AdmitOutcome::Admitted);
    for (int v : {101, 102})
        ASSERT_EQ(q.tryPush(v, "b").outcome, AdmitOutcome::Admitted);

    // Virtual time advances by 1/weight per serve, ties resolve in
    // tenant (map) order: a gets 3 services for every 1 of b.
    std::vector<int> order;
    std::string tenant;
    for (int i = 0; i < 8; i++) {
        auto item = q.pop(&tenant);
        ASSERT_TRUE(item.has_value());
        order.push_back(*item);
        q.release(tenant);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 101, 2, 3, 4, 102, 5, 6}));
}

TEST(FairShareQueue, PriorityOrderFifoWithinLane)
{
    FairShareQueue<int> q(QosConfig{});
    ASSERT_EQ(q.tryPush(1, "t", 0.0).outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(q.tryPush(2, "t", 5.0).outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(q.tryPush(3, "t", 0.0).outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(q.tryPush(4, "t", 5.0).outcome, AdmitOutcome::Admitted);
    // Per lane: highest priority first, FIFO among equals.
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 3);
}

TEST(FairShareQueue, InFlightQuotaGatesUntilRelease)
{
    QosConfig cfg;
    cfg.tenants["q"] = {1.0, /*maxInFlight=*/1, 0};
    FairShareQueue<int> q(cfg);
    ASSERT_EQ(q.tryPush(1, "q").outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(q.tryPush(2, "q").outcome, AdmitOutcome::Admitted);

    int out = 0;
    EXPECT_EQ(q.tryPop(out), PopStatus::Ok);
    EXPECT_EQ(out, 1);
    // One job of "q" is in flight: the lane is ineligible even though
    // it has queued work.
    EXPECT_EQ(q.tryPop(out), PopStatus::Empty);
    q.release("q");
    EXPECT_EQ(q.tryPop(out), PopStatus::Ok);
    EXPECT_EQ(out, 2);
}

TEST(FairShareQueue, PerLaneBacklogBoundRejects)
{
    QosConfig cfg;
    cfg.capacity = 16;
    cfg.tenants["small"] = {1.0, 0, /*maxQueued=*/2};
    FairShareQueue<int> q(cfg);
    EXPECT_EQ(q.tryPush(1, "small").outcome, AdmitOutcome::Admitted);
    EXPECT_EQ(q.tryPush(2, "small").outcome, AdmitOutcome::Admitted);
    EXPECT_EQ(q.tryPush(3, "small").outcome, AdmitOutcome::Full);
    EXPECT_EQ(q.tryPush(4, "other").outcome, AdmitOutcome::Admitted);
    EXPECT_EQ(q.size(), 3u);
}

TEST(FairShareQueue, DisplacesNewestOfMostOverShareLane)
{
    QosConfig cfg;
    cfg.capacity = 4;
    FairShareQueue<int> q(cfg);
    for (int v : {1, 2, 3, 4})
        ASSERT_EQ(q.tryPush(v, "flood").outcome, AdmitOutcome::Admitted);

    // The queue is full, but the under-share tenant still gets in: the
    // flooder's *newest* entry is displaced and handed back.
    auto pushed = q.tryPush(9, "vip");
    EXPECT_EQ(pushed.outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(pushed.shed.size(), 1u);
    EXPECT_EQ(pushed.shed[0], 4);
    EXPECT_EQ(q.size(), 4u);

    // The flooder itself is now the (tied-)most over-share lane, so
    // its own push gets plain backpressure — nobody else pays.
    auto again = q.tryPush(5, "flood");
    EXPECT_EQ(again.outcome, AdmitOutcome::Full);
    EXPECT_TRUE(again.shed.empty());
    EXPECT_EQ(q.size(), 4u);
}

TEST(FairShareQueue, DeadlineShedUsesServiceEstimate)
{
    QosConfig cfg;
    cfg.capacity = 0;   // unbounded: isolate the deadline policy
    cfg.workers = 1;
    cfg.initialServiceSeconds = 10.0;
    FairShareQueue<int> q(cfg);

    // First job: nothing is ahead of it, any deadline is feasible.
    ASSERT_EQ(q.tryPush(1, "a", 0.0, monotonicSeconds() + 0.5).outcome,
              AdmitOutcome::Admitted);
    // Second job: one ~10s job ahead, a 1s deadline is hopeless.
    EXPECT_EQ(q.tryPush(2, "a", 0.0, monotonicSeconds() + 1.0).outcome,
              AdmitOutcome::Shed);
    // ...but a 100s deadline clears the ~10s estimated wait.
    EXPECT_EQ(q.tryPush(3, "a", 0.0, monotonicSeconds() + 100.0).outcome,
              AdmitOutcome::Admitted);
    // No deadline means no shedding regardless of the estimate.
    EXPECT_EQ(q.tryPush(4, "a").outcome, AdmitOutcome::Admitted);
    EXPECT_DOUBLE_EQ(q.serviceEstimateSeconds(), 10.0);

    // With no evidence (EWMA seed 0) the policy never fires.
    QosConfig blind = cfg;
    blind.initialServiceSeconds = 0.0;
    FairShareQueue<int> q2(blind);
    ASSERT_EQ(q2.tryPush(1, "a").outcome, AdmitOutcome::Admitted);
    EXPECT_EQ(q2.tryPush(2, "a", 0.0, monotonicSeconds() + 1.0).outcome,
              AdmitOutcome::Admitted);
    // A measured run is evidence; the next doomed push sheds.
    q2.recordServiceSeconds(10.0);
    EXPECT_EQ(q2.tryPush(3, "a", 0.0, monotonicSeconds() + 1.0).outcome,
              AdmitOutcome::Shed);
}

TEST(FairShareQueue, CloseDrainsBacklogIgnoringQuota)
{
    QosConfig cfg;
    cfg.tenants["q"] = {1.0, /*maxInFlight=*/1, 0};
    FairShareQueue<int> q(cfg);
    ASSERT_EQ(q.tryPush(1, "q").outcome, AdmitOutcome::Admitted);
    ASSERT_EQ(q.tryPush(2, "q").outcome, AdmitOutcome::Admitted);

    int out = 0;
    ASSERT_EQ(q.tryPop(out), PopStatus::Ok);   // quota slot now taken
    q.close();
    EXPECT_EQ(q.tryPush(3, "q").outcome, AdmitOutcome::Full);
    // Shutdown drains regardless of the in-flight quota...
    EXPECT_EQ(q.tryPop(out), PopStatus::Ok);
    EXPECT_EQ(out, 2);
    // ...and then reports drained.
    EXPECT_EQ(q.tryPop(out), PopStatus::Drained);
    EXPECT_EQ(q.pop(), std::nullopt);
    EXPECT_TRUE(q.isClosed());
}

TEST(FairShareQueue, ParsesTenantSpecs)
{
    std::map<std::string, TenantQos> out;
    std::string error;
    ASSERT_TRUE(parseTenantQosSpecs("gold:4,free:1:2:8", &out, &error))
        << error;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out["gold"].weight, 4.0);
    EXPECT_EQ(out["gold"].maxInFlight, 0u);
    EXPECT_DOUBLE_EQ(out["free"].weight, 1.0);
    EXPECT_EQ(out["free"].maxInFlight, 2u);
    EXPECT_EQ(out["free"].maxQueued, 8u);

    for (const char *bad :
         {"noweight", "a:", "a:0", "a:-1", "a:1:z", "a:1:2:3:4", ":2"}) {
        std::map<std::string, TenantQos> untouched;
        std::string why;
        EXPECT_FALSE(parseTenantQosSpecs(bad, &untouched, &why)) << bad;
        EXPECT_TRUE(untouched.empty()) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

// ---------------------------------------------------------------------
// StopToken

TEST(StopToken, DefaultTokenNeverFires)
{
    StopToken token;
    EXPECT_FALSE(token.stopPossible());
    EXPECT_FALSE(token.stopRequested());
}

TEST(StopToken, SourceFiresEveryToken)
{
    StopSource source;
    StopToken a = source.token();
    StopToken b = a;   // copies observe the same flag
    EXPECT_FALSE(a.stopRequested());
    source.requestStop();
    EXPECT_TRUE(a.stopRequested());
    EXPECT_TRUE(b.stopRequested());
}

TEST(StopToken, DeadlineFiresWithoutASource)
{
    StopToken token = StopToken().withDeadline(0.0);
    EXPECT_TRUE(token.stopPossible());
    EXPECT_TRUE(waitUntil([&] { return token.stopRequested(); }, 1.0));
    EXPECT_TRUE(token.deadlineExpired());
}

TEST(StopToken, RecordsFirstRequestInstantForAttribution)
{
    StopSource source;
    EXPECT_DOUBLE_EQ(source.requestStopAtSeconds(), 0.0);

    const double before = detail::steadyNowSeconds();
    source.requestStop();
    const double first = source.requestStopAtSeconds();
    EXPECT_GE(first, before);
    EXPECT_LE(first, detail::steadyNowSeconds());

    // requestStop() is sticky: later calls keep the first instant.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    source.requestStop();
    EXPECT_DOUBLE_EQ(source.requestStopAtSeconds(), first);

    // Both instants live on the same steady-clock scale, so a finisher
    // can order them: a far-future deadline lost to this cancel, an
    // already-expired one beat it.
    StopToken late = source.token().withDeadline(1000.0);
    EXPECT_GT(late.deadlineAtSeconds(), first);
    StopToken early = source.token().withDeadline(-1.0);
    EXPECT_LT(early.deadlineAtSeconds(), first);
    EXPECT_DOUBLE_EQ(StopToken().deadlineAtSeconds(), 0.0);
}

// ---------------------------------------------------------------------
// Fingerprints

TEST(Fingerprint, StringsAreLengthPrefixed)
{
    Fingerprint a, b;
    a.mix(std::string_view("ab"));
    a.mix(std::string_view("c"));
    b.mix(std::string_view("a"));
    b.mix(std::string_view("bc"));
    EXPECT_NE(a.value(), b.value());
}

TEST(Fingerprint, DifferentEngineOptionsDoNotAlias)
{
    JobRequest base;
    base.graph = "g";
    base.algo = "pr";

    JobRequest tol = base;
    tol.options.tolerance = 1e-3;
    JobRequest sched = base;
    sched.options.schedule = Schedule::Priority;
    JobRequest eng = base;
    eng.engine = "async";

    const std::uint64_t gfp = 0x1234;
    const std::uint64_t k0 = jobFingerprint(gfp, base);
    EXPECT_NE(k0, jobFingerprint(gfp, tol));
    EXPECT_NE(k0, jobFingerprint(gfp, sched));
    EXPECT_NE(k0, jobFingerprint(gfp, eng));
    // ...but they all share one fixpoint family.
    const std::uint64_t f0 = jobFamilyFingerprint(gfp, base);
    EXPECT_EQ(f0, jobFamilyFingerprint(gfp, tol));
    EXPECT_EQ(f0, jobFamilyFingerprint(gfp, sched));
    EXPECT_EQ(f0, jobFamilyFingerprint(gfp, eng));
}

TEST(Fingerprint, ThreadCountKeysOnlyThreadedEngines)
{
    for (const char *engine : {"serial", "sim", "async", "accum"}) {
        SCOPED_TRACE(engine);
        JobRequest two;
        two.graph = "g";
        two.algo = "pr";
        two.engine = engine;
        two.options.numThreads = 2;
        JobRequest three = two;
        three.options.numThreads = 3;
        const bool threaded = std::string(engine) == "async" ||
                              std::string(engine) == "accum";
        EXPECT_EQ(jobFingerprint(0x1234, two) != jobFingerprint(0x1234, three),
                  threaded);
    }
}

TEST(Fingerprint, AlgoSourceAndGraphSplitFamilies)
{
    JobRequest base;
    base.graph = "g";
    base.algo = "sssp";
    base.source = 0;
    JobRequest src = base;
    src.source = 7;
    JobRequest algo = base;
    algo.algo = "bfs";

    EXPECT_NE(jobFamilyFingerprint(1, base),
              jobFamilyFingerprint(1, src));
    EXPECT_NE(jobFamilyFingerprint(1, base),
              jobFamilyFingerprint(1, algo));
    EXPECT_NE(jobFamilyFingerprint(1, base),
              jobFamilyFingerprint(2, base));
}

TEST(Fingerprint, StraySourceDoesNotSplitSourcelessFamilies)
{
    // Regression: pr/cc/lp ignore JobRequest::source, but the family
    // fingerprint used to mix it anyway, so equivalent requests with
    // different stray sources landed in different cache families and
    // missed the ResultCache (and its warm-start path) for no reason.
    for (const char *algo : {"pr", "cc", "lp"}) {
        JobRequest a;
        a.graph = "g";
        a.algo = algo;
        a.source = 0;
        JobRequest b = a;
        b.source = 7;

        EXPECT_EQ(jobFamilyFingerprint(1, a), jobFamilyFingerprint(1, b))
            << algo;
        EXPECT_EQ(jobFingerprint(1, a), jobFingerprint(1, b)) << algo;
    }

    // The source-dependent algorithms must still split on it.
    for (const char *algo : {"sssp", "bfs", "ppr"}) {
        JobRequest a;
        a.graph = "g";
        a.algo = algo;
        a.source = 0;
        JobRequest b = a;
        b.source = 7;
        EXPECT_NE(jobFamilyFingerprint(1, a), jobFamilyFingerprint(1, b))
            << algo;
    }
}

// ---------------------------------------------------------------------
// ResultCache

std::shared_ptr<const JobResult>
makeResult(double v)
{
    auto r = std::make_shared<JobResult>();
    r->values = {v};
    return r;
}

TEST(ResultCache, EvictsLeastRecentlyUsed)
{
    ResultCache cache(3, 0.0);
    cache.put(1, makeResult(1));
    cache.put(2, makeResult(2));
    cache.put(3, makeResult(3));
    ASSERT_NE(cache.get(1), nullptr);   // 1 becomes most recent
    cache.put(4, makeResult(4));        // evicts 2, the LRU entry

    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_NE(cache.get(4), nullptr);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, TtlExpiresEntriesOnInjectedClock)
{
    double fake_now = 0.0;
    ResultCache cache(4, 10.0, [&fake_now] { return fake_now; });
    cache.put(1, makeResult(1));

    fake_now = 5.0;
    EXPECT_NE(cache.get(1), nullptr);   // get() does not refresh TTL

    fake_now = 10.0;
    EXPECT_EQ(cache.get(1), nullptr);   // expired at insertion + ttl
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().expirations, 1u);

    // put() on an existing key refreshes the TTL.
    fake_now = 20.0;
    cache.put(2, makeResult(2));
    fake_now = 25.0;
    cache.put(2, makeResult(2));
    fake_now = 34.0;
    EXPECT_NE(cache.get(2), nullptr);
}

TEST(ResultCache, PrefersExpiredVictimOverLruEntry)
{
    // Regression: eviction used to take the LRU tail unconditionally,
    // discarding a live entry while an expired one sat in the cache.
    double fake_now = 0.0;
    ResultCache cache(2, 10.0, [&fake_now] { return fake_now; });
    cache.put(1, makeResult(1));        // expires at t=10
    fake_now = 1.0;
    cache.put(2, makeResult(2));        // expires at t=11
    fake_now = 2.0;
    ASSERT_NE(cache.get(1), nullptr);   // 2 is now the LRU tail
    fake_now = 10.5;                    // 1 expired, 2 still live
    cache.put(3, makeResult(3));        // must evict dead 1, not live 2
    EXPECT_NE(cache.get(2), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.get(1), nullptr);
    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.expirations, 1u);
}

TEST(ResultCache, ReplacementIsCountedSeparatelyFromInsertion)
{
    ResultCache cache(4, 0.0);
    cache.put(1, makeResult(1));
    cache.put(1, makeResult(2));   // same key: replaces, no growth
    const ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.replacements, 1u);
    EXPECT_EQ(cache.size(), 1u);
    auto r = cache.get(1);
    ASSERT_NE(r, nullptr);
    EXPECT_DOUBLE_EQ(r->values[0], 2.0);
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    ResultCache cache(0, 0.0);
    cache.put(1, makeResult(1));
    EXPECT_EQ(cache.get(1), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------
// GraphRegistry

TEST(GraphRegistry, AddGetRemoveAndList)
{
    Rng rng(71);
    GraphRegistry registry;
    auto g = registry.add("g", generateRmat(100, 600, rng), 32);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(registry.get("g"), g);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_NE(registry.fingerprint("g"), 0u);

    const auto infos = registry.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].name, "g");
    EXPECT_EQ(infos[0].vertices, g->numVertices());

    EXPECT_TRUE(registry.remove("g"));
    EXPECT_EQ(registry.get("g"), nullptr);
    EXPECT_FALSE(registry.remove("g"));
    // In-flight holders keep the partition alive after remove().
    EXPECT_GT(g->numVertices(), 0u);
}

TEST(GraphRegistry, ReplacingAGraphChangesItsFingerprint)
{
    Rng rng(72);
    GraphRegistry registry;
    registry.add("g", generateRmat(100, 600, rng), 32);
    const std::uint64_t fp1 = registry.fingerprint("g");
    registry.add("g", generateRmat(120, 700, rng), 32);
    const std::uint64_t fp2 = registry.fingerprint("g");
    EXPECT_NE(fp1, fp2);
    EXPECT_EQ(registry.size(), 1u);
}

// ---------------------------------------------------------------------
// JobManager end-to-end

class ServeTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(73);
        web = generateRmat(250, 1800, rng, {.weighted = true});
        road = generateRmat(180, 1100, rng, {.weighted = true});
        registry.add("web", web, 32);
        registry.add("road", road, 32);
        registry.add(kSwap, generateCycle(2), 32);
    }

    JobRequest
    request(const std::string &graph, const std::string &algo,
            const std::string &engine, VertexId source = 0)
    {
        JobRequest req;
        req.graph = graph;
        req.algo = algo;
        req.engine = engine;
        req.source = source;
        req.options.numThreads = 2;
        req.allowCached = false;
        req.allowWarmStart = false;
        return req;
    }

    EdgeList web, road;
    GraphRegistry registry;
};

TEST_F(ServeTest, ConcurrentJobsMatchDirectEngineRuns)
{
    // 9 jobs over 2 shared graphs, submitted from 9 client threads.
    const std::vector<JobRequest> reqs = {
        request("web", "pr", "serial"),
        request("web", "sssp", "serial", 0),
        request("web", "bfs", "serial", 3),
        request("web", "ppr", "serial", 5),
        request("web", "sssp", "async", 0),
        request("road", "pr", "serial"),
        request("road", "sssp", "serial", 1),
        request("road", "lp", "serial"),
        request("road", "bfs", "async", 2),
    };

    ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = reqs.size();
    JobManager manager(registry, cfg);

    std::vector<JobId> ids(reqs.size(), 0);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < reqs.size(); i++) {
        clients.emplace_back([&, i] {
            JobManager::Submitted sub = manager.submit(reqs[i]);
            ASSERT_TRUE(sub.ok()) << to_string(sub.error);
            ids[i] = sub.id;
            EXPECT_TRUE(manager.wait(sub.id, 60.0));
        });
    }
    for (auto &t : clients)
        t.join();

    for (std::size_t i = 0; i < reqs.size(); i++) {
        auto result = manager.result(ids[i]);
        ASSERT_NE(result, nullptr) << "job " << i;
        EXPECT_TRUE(result->report.converged) << "job " << i;

        // Direct run on the same partition, no service in between.
        auto g = registry.get(reqs[i].graph);
        JobRequest direct = reqs[i];
        direct.options.blockSize = g->blockSize();
        RunOutcome expected = runAnalyticsJob(*g, direct);
        ASSERT_TRUE(expected.ok()) << expected.error;
        ASSERT_EQ(result->values.size(), expected.values.size());
        const bool exact = reqs[i].engine == "serial";
        for (std::size_t v = 0; v < expected.values.size(); v++) {
            if (exact)
                EXPECT_DOUBLE_EQ(result->values[v], expected.values[v])
                    << "job " << i << " vertex " << v;
            else
                EXPECT_NEAR(result->values[v], expected.values[v], 1e-9)
                    << "job " << i << " vertex " << v;
        }
    }
    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.submitted, reqs.size());
    EXPECT_EQ(stats.completed, reqs.size());
    EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServeTest, AccumEngineJobsRunThroughTheServeLayer)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 4;
    JobManager manager(registry, cfg);

    JobRequest req = request("web", "pr", "accum");
    req.options.schedule = Schedule::Priority;
    req.options.tolerance = 1e-12;
    JobManager::Submitted sub = manager.submit(req);
    ASSERT_TRUE(sub.ok()) << to_string(sub.error);
    ASSERT_TRUE(manager.wait(sub.id, 60.0));

    auto result = manager.result(sub.id);
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->report.converged);
    std::vector<double> ref = pagerankReference(web, 0.85);
    ASSERT_EQ(result->values.size(), ref.size());
    for (std::size_t v = 0; v < ref.size(); v++)
        EXPECT_NEAR(result->values[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_F(ServeTest, AccumEngineRejectsAlgosWithoutADeltaForm)
{
    std::string why;
    auto valid = [&](const char *algo, const char *engine) {
        return validate(request("web", algo, engine), nullptr, &why);
    };
    EXPECT_TRUE(valid("pr", "accum")) << why;
    EXPECT_TRUE(valid("sssp", "accum")) << why;
    EXPECT_TRUE(valid("bfs", "accum")) << why;
    EXPECT_TRUE(valid("cc", "accum")) << why;

    // ppr's delta form is derived from its GAS program like pr's.
    EXPECT_TRUE(valid("ppr", "accum")) << why;

    EXPECT_FALSE(valid("lp", "accum"));
    EXPECT_NE(why.find("accumulative"), std::string::npos) << why;

    // The same algos stay runnable on the other engines.
    EXPECT_TRUE(valid("lp", "serial")) << why;

    // And the runner reports the unsupported combination as a job
    // error, not a crash.
    auto g = registry.get("web");
    RunOutcome out = runAnalyticsJob(*g, request("web", "lp", "accum"));
    EXPECT_FALSE(out.ok());
    EXPECT_NE(out.error.find("accumulative"), std::string::npos)
        << out.error;
}

/**
 * The threaded engines run only the barrierless model.  A Barrier or
 * BSP request for them is refused with a reason naming the mode and
 * the engines that run it, not run as Async under its own cache key.
 */
TEST_F(ServeTest, ThreadedEnginesRefuseSynchronousModes)
{
    auto g = registry.get("web");
    for (const char *engine : {"async", "accum"}) {
        for (ExecMode mode : {ExecMode::Barrier, ExecMode::Bsp}) {
            SCOPED_TRACE(std::string(engine) + "/" + to_string(mode));
            JobRequest req = request("web", "pr", engine);
            req.options.mode = mode;
            std::string why;
            EXPECT_FALSE(validate(req, nullptr, &why));
            const RunOutcome out = runAnalyticsJob(*g, req);
            EXPECT_FALSE(out.ok());
            EXPECT_EQ(out.error, why);
            EXPECT_NE(why.find(to_string(mode)), std::string::npos) << why;
            EXPECT_NE(why.find("engine=serial"), std::string::npos) << why;
            EXPECT_NE(why.find("engine=sim"), std::string::npos) << why;
        }
    }
    // The modes stay runnable where they are modelled.
    for (const char *engine : {"serial", "sim"}) {
        JobRequest req = request("web", "pr", engine);
        req.options.mode = ExecMode::Bsp;
        std::string why;
        EXPECT_TRUE(validate(req, nullptr, &why)) << engine << ": " << why;
    }
}

/**
 * The adversarial inputs of the Registry matrix, next to a plain RMAT:
 * each breaks an assumption a per-block activation rule could make
 * (every block has in-edges, every vertex an out-edge, one component,
 * |V| a multiple of the block size, no block touches every other).
 */
std::vector<std::pair<std::string, EdgeList>>
registryGraphs()
{
    std::vector<std::pair<std::string, EdgeList>> graphs;
    Rng rng(97);
    // Prime |V|: the last block is ragged.
    graphs.emplace_back("rmat211",
                        generateRmat(211, 1700, rng, {.weighted = true}));

    EdgeList loop(1);
    loop.addEdge(0, 0, 2.0f);
    graphs.emplace_back("one-vertex-self-loop", std::move(loop));

    // Two weighted cycles with self-loops on either side of isolated
    // vertex 20: the second cycle is unreachable from any source in the
    // first, and the middle of the three blocks holds parts of both.
    EdgeList split(41);
    for (VertexId v = 0; v < 20; v++)
        split.addEdge(v, (v + 1) % 20, 1.0f + static_cast<float>(v % 3));
    for (VertexId v = 21; v < 41; v++)
        split.addEdge(v, v == 40 ? 21 : v + 1, 2.0f);
    split.addEdge(3, 3, 1.0f);
    split.addEdge(30, 30, 5.0f);
    split.addEdge(7, 2, 4.0f);
    graphs.emplace_back("self-loops-isolated-two-components",
                        std::move(split));

    // Hub 0 to and from every spoke: one block feeds all the others.
    EdgeList star(97);
    for (VertexId v = 1; v < 97; v++) {
        star.addEdge(0, v, 1.0f);
        star.addEdge(v, 0, 3.0f);
    }
    graphs.emplace_back("star-hub", std::move(star));

    // Prime |V| = 53 over 16-vertex blocks: a directed chain with
    // weighted chords, so the last block holds 5 vertices.
    EdgeList chain = generateChain(53, true);
    for (VertexId v = 0; v + 7 < 53; v += 5)
        chain.addEdge(v + 7, v, 2.5f);
    graphs.emplace_back("prime-chain", std::move(chain));

    graphs.emplace_back("empty", EdgeList(0));
    return graphs;
}

/**
 * cc labels under a vertex reorder: the representative is whichever
 * member the permutation placed first, so compare the partitions the
 * labellings induce, not the labels.
 */
void
expectSameComponents(const std::vector<double> &labels,
                     const std::vector<double> &ref)
{
    ASSERT_EQ(labels.size(), ref.size());
    std::map<double, double> label_to_ref;
    for (std::size_t v = 0; v < labels.size(); v++) {
        const auto label = static_cast<std::size_t>(labels[v]);
        ASSERT_LT(label, ref.size()) << "vertex " << v;
        EXPECT_EQ(ref[label], ref[v]) << "label outside vertex " << v
                                      << "'s component";
        EXPECT_EQ(label_to_ref.emplace(labels[v], ref[v]).first->second,
                  ref[v])
            << "label " << labels[v] << " spans two components";
    }
    const std::set<double> ref_labels(ref.begin(), ref.end());
    EXPECT_EQ(label_to_ref.size(), ref_labels.size())
        << "labelling is finer than the reference partition";
}

/**
 * Every (engine, algo) cell the runner's table accepts on `directed`,
 * in layout `lo` under `schedule`, against the exact references — or
 * the serial engine on the plain layout for ppr, which has none.  lp's
 * fixpoint depends on the update order, so it is only checked for a
 * well-formed labelling.  Every pr cell must also conserve the
 * reference's rank mass, since every engine's GATHER reads published
 * copies.  On the empty graph no source is a vertex, so validate
 * refuses the source algorithms there, as serve refuses them.
 */
void
checkEveryRunnableCell(const EdgeList &directed, LayoutOptions lo = {},
                       Schedule schedule = Schedule::Cyclic)
{
    const EdgeList sym = directed.symmetrized();
    const std::vector<std::uint32_t> deg = directed.outDegrees();
    const auto source = static_cast<VertexId>(
        std::max_element(deg.begin(), deg.end()) - deg.begin());
    const bool empty = directed.numVertices() == 0;

    std::vector<std::string> rejected, invalid;
    int cells = 0;
    for (const AlgoInfo &algo : servedAlgos()) {
        const EdgeList &el = algo.symmetricInput ? sym : directed;
        BlockPartition g(el, 16, lo);
        EngineOptions opt;
        opt.blockSize = 16;
        opt.tolerance = 1e-12;
        opt.numThreads = 2;
        opt.schedule = schedule;

        const std::string name(algo.name);
        std::vector<double> expected;
        double tol = 0.0;
        double expected_mass = 0.0;   // pr only
        bool exact = true;
        if (empty && algo.usesSource) {
            // No reference: every cell is refused below.
        } else if (name == "pr") {
            expected = pagerankReference(el, 0.85);
            expected_mass =
                std::accumulate(expected.begin(), expected.end(), 0.0);
            tol = 1e-7;
        } else if (name == "ppr") {
            SerialEngine<PersonalizedPageRankProgram>(
                BlockPartition(el, 16),
                PersonalizedPageRankProgram(source), opt)
                .run(expected);
            tol = 1e-7;
        } else if (name == "sssp") {
            expected = dijkstraReference(el, source);
            tol = 1e-6;
        } else if (name == "bfs") {
            expected = bfsReference(el, source);
        } else if (name == "cc") {
            expected = ccReference(el);
        } else {
            ASSERT_EQ(name, "lp") << "new algorithm without a reference";
            exact = false;
        }

        for (const std::string &engine : engineNames()) {
            if (engine == "wedge")
                continue;
            JobRequest req;
            req.algo = name;
            req.engine = engine;
            req.source = source;
            req.options = opt;
            if (!validate(req, nullptr)) {
                rejected.push_back(engine + "/" + name);
                continue;
            }
            if (!validate(req, &g)) {
                invalid.push_back(engine + "/" + name);
                continue;
            }
            cells++;
            SCOPED_TRACE(engine + "/" + name);
            RunOutcome out = runAnalyticsJob(g, req);
            ASSERT_TRUE(out.ok()) << out.error;
            ASSERT_EQ(out.values.size(), el.numVertices());
            if (!exact) {
                for (double label : out.values) {
                    EXPECT_EQ(label, std::floor(label));
                    EXPECT_GE(label, 0.0);
                    EXPECT_LT(label, el.numVertices());
                }
                continue;
            }
            EXPECT_TRUE(out.report.converged);
            if (name == "cc" && lo.reorder != VertexReorder::None) {
                expectSameComponents(out.values, expected);
                continue;
            }
            for (VertexId v = 0; v < el.numVertices(); v++)
                EXPECT_NEAR(out.values[v], expected[v], tol)
                    << "vertex " << v;
            if (name == "pr") {
                // A run stops once no vertex moves by more than tol, so
                // each rank may sit up to about tol / (1 - alpha) off
                // (a geometric tail of sub-tolerance moves) and the
                // mass up to |V| times that.  Allow 10x: 1.4e-8 on
                // rmat211, where the per-vertex checks allow 2.1e-5.
                const double mass = std::accumulate(
                    out.values.begin(), out.values.end(), 0.0);
                const double bound = 10.0 * el.numVertices() *
                                     opt.tolerance / (1.0 - 0.85);
                EXPECT_NEAR(mass, expected_mass, bound) << "PageRank mass";
            }
        }
    }
    // lp has no delta form; every other cell runs.
    EXPECT_EQ(rejected, std::vector<std::string>{"accum/lp"});
    if (empty) {
        // ppr, sssp and bfs on each of the four engines.
        EXPECT_EQ(invalid.size(), 12u);
        EXPECT_EQ(cells, 11);
    } else {
        EXPECT_TRUE(invalid.empty());
        EXPECT_EQ(cells, 23);
    }
}

TEST(Registry, EveryRunnableCellMatchesTheReference)
{
    const auto graphs = registryGraphs();
    for (const auto &[name, graph] : graphs) {
        SCOPED_TRACE(name);
        checkEveryRunnableCell(graph);
    }
    // Every engine activates blocks from the destination-block sidecar
    // of the out-edge adjacency, which both layouts and both vertex
    // orders build; every schedule consumes the batched activations.
    const EdgeList &rmat = graphs.front().second;
    for (GraphLayout layout :
         {GraphLayout::Plain, GraphLayout::Compressed}) {
        for (VertexReorder reorder :
             {VertexReorder::None, VertexReorder::Hub}) {
            for (Schedule schedule :
                 {Schedule::Cyclic, Schedule::Priority, Schedule::Random}) {
                LayoutOptions lo;
                lo.layout = layout;
                lo.reorder = reorder;
                SCOPED_TRACE(std::string("rmat211 ") + to_string(layout) +
                             "/" + to_string(reorder) + "/" +
                             to_string(schedule));
                checkEveryRunnableCell(rmat, lo, schedule);
            }
        }
    }
}

TEST_F(ServeTest, RepeatedJobIsServedFromTheResultCache)
{
    JobManager manager(registry);
    JobRequest req = request("web", "pr", "serial");
    req.allowCached = true;

    JobManager::Submitted first = manager.submit(req);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(manager.wait(first.id, 60.0));
    ASSERT_NE(manager.result(first.id), nullptr);

    JobManager::Submitted second = manager.submit(req);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(manager.wait(second.id, 60.0));

    auto st = manager.status(second.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->cacheHit);
    EXPECT_EQ(st->state, JobState::Done);
    // Hit verified through the counters, and the result is shared.
    EXPECT_EQ(manager.stats().cacheHits, 1u);
    EXPECT_GE(manager.cache().stats().hits, 1u);
    EXPECT_EQ(manager.result(second.id).get(),
              manager.result(first.id).get());
}

TEST_F(ServeTest, SerialJobAtAnotherThreadCountIsACacheHit)
{
    JobManager manager(registry);
    JobRequest req = request("web", "pr", "serial");
    req.allowCached = true;
    req.options.numThreads = 2;
    JobManager::Submitted first = manager.submit(req);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(manager.wait(first.id, 60.0));

    req.options.numThreads = 3;
    JobManager::Submitted second = manager.submit(req);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(manager.wait(second.id, 60.0));
    auto st = manager.status(second.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->cacheHit);
    EXPECT_EQ(manager.stats().cacheHits, 1u);
}

TEST_F(ServeTest, FinishedJobsDoNotPinFetchedResults)
{
    // A long-lived service retains up to maxRetainedJobs terminal
    // records.  Once a client has fetched a result and let it go, the
    // record must not keep the value vector alive: only the result
    // cache (and through it the warm-start index) may.
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.cacheCapacity = 2;
    JobManager manager(registry, cfg);

    constexpr int kJobs = 8;
    std::vector<JobId> ids;
    std::vector<std::weak_ptr<const JobResult>> fetched;
    for (int i = 0; i < kJobs; i++) {
        JobRequest req = request("web", "pr", "serial");
        // Distinct tolerances: distinct cache keys, every job cold.
        req.options.tolerance = 1e-6 / (i + 1);
        JobManager::Submitted sub = manager.submit(req);
        ASSERT_TRUE(sub.ok());
        ASSERT_TRUE(manager.wait(sub.id, 60.0));
        std::shared_ptr<const JobResult> result = manager.result(sub.id);
        ASSERT_NE(result, nullptr);
        ASSERT_EQ(result->values.size(), web.numVertices());
        ids.push_back(sub.id);
        fetched.push_back(result);
    }

    std::size_t alive = 0;
    for (const auto &w : fetched)
        alive += !w.expired();
    EXPECT_LE(alive, manager.cache().capacity());
    EXPECT_GE(alive, 1u);   // the cache still serves the newest

    // status() answers from the record's own copy of the report, for
    // released and still-cached results alike.
    for (JobId id : ids) {
        auto st = manager.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, JobState::Done);
        EXPECT_TRUE(st->converged);
        EXPECT_GT(st->blockUpdates, 0u);
    }
    // The newest job's values are still fetchable through the cache;
    // the oldest were released.
    EXPECT_NE(manager.result(ids.back()), nullptr);
    EXPECT_EQ(manager.result(ids.front()), nullptr);
}

TEST_F(ServeTest, ReplacedGraphExpiresOnceItsJobsAreTerminal)
{
    // A LOAD that replaces a graph drops the registry's reference; the
    // old partition must go once its cold, cache-hit and warm-started
    // jobs are terminal and their results fetched, however many
    // records the service retains.
    JobManager manager(registry);
    auto old_graph = registry.add("replaced", web, 32);
    std::weak_ptr<const BlockPartition> weak = old_graph;
    old_graph.reset();

    JobRequest req = request("replaced", "pr", "serial");
    req.allowCached = true;
    req.allowWarmStart = true;
    req.options.tolerance = 1e-6;
    JobRequest finer = req;
    finer.options.tolerance = 1e-8;
    std::vector<JobId> ids;
    for (const JobRequest &r : {req, req, finer}) {
        JobManager::Submitted sub = manager.submit(r);
        ASSERT_TRUE(sub.ok());
        ASSERT_TRUE(manager.wait(sub.id, 60.0));
        ASSERT_NE(manager.result(sub.id), nullptr);
        ids.push_back(sub.id);
    }
    EXPECT_FALSE(manager.status(ids[0])->cacheHit);
    EXPECT_TRUE(manager.status(ids[1])->cacheHit);
    EXPECT_TRUE(manager.status(ids[2])->warmStarted);

    EXPECT_FALSE(weak.expired());   // still registered
    registry.add("replaced", road, 32);
    EXPECT_TRUE(weak.expired());
    for (JobId id : ids)
        EXPECT_EQ(manager.status(id)->state, JobState::Done);
}

TEST_F(ServeTest, CacheHitTrafficStaysWithinMaxRetainedJobs)
{
    // Cache hits finish at submit; they are pruned, counted and
    // gauged like every other job.
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.maxRetainedJobs = 4;
    JobManager manager(registry, cfg);
    JobRequest req = request("web", "pr", "serial");
    req.allowCached = true;
    req.tenant = "hits";

    constexpr int kJobs = 20;
    std::vector<JobId> ids;
    for (int i = 0; i < kJobs; i++) {
        JobManager::Submitted sub = manager.submit(req);
        ASSERT_TRUE(sub.ok());
        ASSERT_TRUE(manager.wait(sub.id, 60.0));
        ids.push_back(sub.id);
    }
    std::size_t retained = 0;
    for (JobId id : ids)
        retained += manager.status(id).has_value();
    EXPECT_LE(retained, cfg.maxRetainedJobs);
    EXPECT_TRUE(manager.status(ids.back()).has_value());
    EXPECT_TRUE(manager.status(ids.back())->cacheHit);

    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(stats.cacheHits, static_cast<std::uint64_t>(kJobs - 1));
    const ServeStats tenant = manager.tenantStats().at("hits");
    EXPECT_EQ(tenant.cacheHits, static_cast<std::uint64_t>(kJobs - 1));
    EXPECT_EQ(tenant.queueDepth, 0u);
    EXPECT_EQ(tenant.running, 0u);
}

TEST_F(ServeTest, TerminalStatusOutlivesTheJobsGraph)
{
    // status() of a finished job answers from its frozen report, so it
    // still works once the job's graph has been unloaded and freed.
    JobManager manager(registry);
    registry.add("gone", web, 32);
    std::weak_ptr<const BlockPartition> weak = registry.get("gone");
    JobManager::Submitted sub =
        manager.submit(request("gone", "sssp", "async", 3));
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(manager.wait(sub.id, 60.0));
    ASSERT_TRUE(registry.remove("gone"));
    EXPECT_TRUE(weak.expired());

    auto st = manager.status(sub.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Done);
    EXPECT_TRUE(st->converged);
    EXPECT_GT(st->epochs, 0.0);
    EXPECT_GT(st->blockUpdates, 0u);
    EXPECT_NE(manager.result(sub.id), nullptr);
}

TEST_F(ServeTest, SsspRejectsNegativeAndNanWeights)
{
    // SSSP's relaxation clamps at `unreachable`, exact only for finite
    // non-negative weights; bfs reads no weight and runs anyway.
    JobManager manager(registry);
    for (float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity()}) {
        for (GraphLayout layout :
             {GraphLayout::Plain, GraphLayout::Compressed}) {
            EdgeList el = generateChain(40, /*weighted=*/true);
            el.addEdge(7, 3, bad);
            registry.add("bad", el, 8, {.layout = layout});
            SCOPED_TRACE(std::to_string(bad) + " " + to_string(layout));
            EXPECT_FALSE(registry.get("bad")->nonNegativeWeights());
            JobManager::Submitted sub =
                manager.submit(request("bad", "sssp", "serial"));
            EXPECT_EQ(sub.error, SubmitError::BadRequest);
            EXPECT_NE(sub.reason.find("non-negative"), std::string::npos)
                << sub.reason;
            sub = manager.submit(request("bad", "bfs", "serial"));
            ASSERT_TRUE(sub.ok()) << sub.reason;
            EXPECT_TRUE(manager.wait(sub.id, 60.0));
        }
    }
    EXPECT_TRUE(registry.get("web")->nonNegativeWeights());
    EXPECT_TRUE(manager.submit(request("web", "sssp", "serial")).ok());
}

TEST_F(ServeTest, FamilyMemberWarmStartsFromCachedFixpoint)
{
    JobManager manager(registry);
    JobRequest coarse = request("web", "pr", "serial");
    coarse.allowCached = true;
    coarse.allowWarmStart = true;
    coarse.options.tolerance = 1e-6;

    JobManager::Submitted first = manager.submit(coarse);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(manager.wait(first.id, 60.0));

    // Same fixpoint family, tighter tolerance: a different cache key,
    // so it runs — but seeded from the coarse fixpoint.
    JobRequest fine = coarse;
    fine.options.tolerance = 1e-10;
    JobManager::Submitted second = manager.submit(fine);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(manager.wait(second.id, 60.0));

    auto st = manager.status(second.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Done);
    EXPECT_FALSE(st->cacheHit);
    EXPECT_TRUE(st->warmStarted);
    EXPECT_TRUE(st->converged);
    EXPECT_EQ(manager.stats().warmStarts, 1u);

    // The warm-started run still lands on the right fixpoint.
    auto warm = manager.result(second.id);
    auto g = registry.get("web");
    JobRequest direct = fine;
    direct.allowWarmStart = false;
    direct.options.blockSize = g->blockSize();
    RunOutcome expected = runAnalyticsJob(*g, direct);
    ASSERT_EQ(warm->values.size(), expected.values.size());
    for (std::size_t v = 0; v < expected.values.size(); v++)
        EXPECT_NEAR(warm->values[v], expected.values[v], 1e-8);
}

TEST_F(ServeTest, CancelMidRunReportsCancelledWithoutBlockingOthers)
{
    ServeConfig cfg;
    cfg.workers = 2;
    JobManager manager(registry, cfg);

    JobManager::Submitted endless = manager.submit(endlessRequest());
    ASSERT_TRUE(endless.ok());
    // Wait until the engine is demonstrably running: live Progress
    // counters are visible through status() snapshots mid-run.
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(endless.id);
        return st && st->state == JobState::Running &&
               st->blockUpdates > 0;
    }));

    // The second worker keeps serving other jobs meanwhile.
    JobManager::Submitted quick =
        manager.submit(request("road", "pr", "serial"));
    ASSERT_TRUE(quick.ok());
    EXPECT_TRUE(manager.wait(quick.id, 60.0));
    EXPECT_EQ(manager.status(quick.id)->state, JobState::Done);

    EXPECT_TRUE(manager.cancel(endless.id));
    ASSERT_TRUE(manager.wait(endless.id, 10.0));
    auto st = manager.status(endless.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Cancelled);
    EXPECT_EQ(st->error, "cancelled");
    EXPECT_FALSE(st->converged);
    // A cancelled job has no result and cannot be cancelled again.
    EXPECT_EQ(manager.result(endless.id), nullptr);
    EXPECT_FALSE(manager.cancel(endless.id));
    EXPECT_EQ(manager.stats().cancelled, 1u);
}

TEST_F(ServeTest, WaitWithAHugeTimeoutBlocksUntilTheJobEnds)
{
    // A timeout too long for the clock's integer ticks used to
    // overflow and return at once; it waits like an unbounded one.
    JobManager manager(registry);
    JobManager::Submitted endless = manager.submit(endlessRequest());
    ASSERT_TRUE(endless.ok());
    std::atomic<bool> returned{false};
    std::thread waiter([&] {
        EXPECT_TRUE(manager.wait(endless.id, 1e300));
        returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(returned.load());
    EXPECT_TRUE(manager.cancel(endless.id));
    waiter.join();
    EXPECT_TRUE(returned.load());
    EXPECT_FALSE(manager.wait(endless.id + 1000, 1e300));   // unknown id
}

TEST_F(ServeTest, ConcurrentCancelStormCountsEachJobExactlyOnce)
{
    // cancel() and the popping worker race to terminalise the same
    // Queued job; the CAS in finishJob must let exactly one side do
    // the bookkeeping.  Before the fix this storm double-counted
    // stats_.cancelled and double-wrote the error string.
    ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 64;
    JobManager manager(registry, cfg);

    constexpr std::size_t kJobs = 32;
    std::vector<JobId> ids;
    for (std::size_t i = 0; i < kJobs; i++) {
        JobManager::Submitted sub = manager.submit(
            endlessRequest());
        ASSERT_TRUE(sub.ok());
        ids.push_back(sub.id);
    }

    // Several threads cancel every job concurrently, racing both the
    // workers (pop vs. cancel) and each other (cancel vs. cancel).
    std::vector<std::thread> stormers;
    for (int t = 0; t < 8; t++) {
        stormers.emplace_back([&manager, &ids] {
            for (JobId id : ids)
                manager.cancel(id);
        });
    }
    for (auto &t : stormers)
        t.join();

    for (JobId id : ids)
        ASSERT_TRUE(manager.wait(id, 30.0)) << "job " << id;
    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.submitted, kJobs);
    EXPECT_EQ(stats.cancelled, kJobs);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.failed, 0u);
    for (JobId id : ids) {
        auto st = manager.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, JobState::Cancelled);
        EXPECT_TRUE(st->error == "cancelled" ||
                    st->error == "cancelled while queued")
            << "job " << id << ": '" << st->error << "'";
    }
}

TEST_F(ServeTest, DeadlineCancelsARunawayJob)
{
    JobManager manager(registry);
    JobRequest req = endlessRequest();
    req.timeoutSeconds = 0.05;
    JobManager::Submitted sub = manager.submit(req);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(manager.wait(sub.id, 10.0));
    auto st = manager.status(sub.id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Cancelled);
    EXPECT_NE(st->error.find("deadline"), std::string::npos)
        << st->error;
}

TEST_F(ServeTest, SaturatedQueueRejectsInsteadOfDeadlocking)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    JobManager manager(registry, cfg);

    // Occupy the only worker...
    JobManager::Submitted blocker = manager.submit(endlessRequest());
    ASSERT_TRUE(blocker.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(blocker.id);
        return st && st->state == JobState::Running;
    }));

    // ...fill the admission queue...
    JobManager::Submitted q1 = manager.submit(endlessRequest());
    JobManager::Submitted q2 = manager.submit(endlessRequest());
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());

    // ...and the next submission bounces immediately.
    JobManager::Submitted over = manager.submit(endlessRequest());
    EXPECT_FALSE(over.ok());
    EXPECT_EQ(over.error, SubmitError::QueueFull);
    EXPECT_EQ(manager.stats().rejected, 1u);

    // Queued jobs cancel without ever running; the service stays live.
    EXPECT_TRUE(manager.cancel(q1.id));
    EXPECT_TRUE(manager.cancel(q2.id));
    EXPECT_TRUE(manager.cancel(blocker.id));
    EXPECT_TRUE(manager.wait(blocker.id, 10.0));
    EXPECT_TRUE(manager.wait(q1.id, 10.0));
    EXPECT_TRUE(manager.wait(q2.id, 10.0));
    EXPECT_EQ(manager.status(q1.id)->state, JobState::Cancelled);

    // Cancelled queue entries are removed lazily (when a worker pops
    // and skips them), so a client may still see QueueFull briefly —
    // the documented client policy is to retry.
    JobManager::Submitted after;
    ASSERT_TRUE(waitUntil([&] {
        after = manager.submit(request("road", "pr", "serial"));
        return after.ok();
    }));
    EXPECT_TRUE(manager.wait(after.id, 60.0));
    EXPECT_EQ(manager.status(after.id)->state, JobState::Done);
}

TEST_F(ServeTest, RejectsUnknownGraphsAndBadRequests)
{
    JobManager manager(registry);
    EXPECT_EQ(manager.submit(request("nope", "pr", "serial")).error,
              SubmitError::UnknownGraph);
    EXPECT_EQ(manager.submit(request("web", "nope", "serial")).error,
              SubmitError::BadRequest);
    EXPECT_EQ(manager.submit(request("web", "pr", "nope")).error,
              SubmitError::BadRequest);
    // The rejection carries the runner's reason for the reply line.
    const JobManager::Submitted frag =
        manager.submit(request("web", "pr", "fragment"));
    EXPECT_EQ(frag.error, SubmitError::BadRequest);
    EXPECT_EQ(frag.reason, "unknown engine 'fragment'");

    manager.shutdown();
    EXPECT_EQ(manager.submit(request("web", "pr", "serial")).error,
              SubmitError::ShuttingDown);
}

TEST_F(ServeTest, RejectsSourcesOutsideTheGraph)
{
    // Before validation these ran to state=done converged=1 with zero
    // scatters: nothing ever activates from a vertex that is not there.
    JobManager manager(registry);
    const VertexId n = registry.get("web")->numVertices();
    for (const char *algo : {"sssp", "bfs", "ppr"}) {
        for (VertexId bad : {n, VertexId{99999999}}) {
            EXPECT_EQ(manager.submit(request("web", algo, "serial", bad))
                          .error,
                      SubmitError::BadRequest)
                << algo << " source=" << bad;
        }
        JobManager::Submitted last =
            manager.submit(request("web", algo, "serial", n - 1));
        ASSERT_TRUE(last.ok()) << algo;
        EXPECT_TRUE(manager.wait(last.id, 60.0));
        EXPECT_EQ(manager.status(last.id)->state, JobState::Done);
    }
    // Source-less algorithms ignore a stray source.
    EXPECT_TRUE(manager.submit(request("web", "pr", "serial", n)).ok());
    EXPECT_EQ(manager.stats().rejected, 6u);
}

TEST_F(ServeTest, RejectsNonFiniteOrNegativeTolerance)
{
    // tolerance=nan used to converge after one epoch (a NaN compare
    // never activates anything); a negative one never converges.
    JobManager manager(registry);
    for (double tol : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -1.0}) {
        for (const char *engine : {"serial", "async", "accum"}) {
            JobRequest req = request("web", "pr", engine);
            req.options.tolerance = tol;
            EXPECT_EQ(manager.submit(req).error, SubmitError::BadRequest)
                << engine << " tolerance=" << tol;
        }
    }
    JobRequest exact = request("web", "pr", "serial");
    exact.options.tolerance = 0.0;
    JobManager::Submitted sub = manager.submit(exact);
    ASSERT_TRUE(sub.ok());
    EXPECT_TRUE(manager.wait(sub.id, 60.0));
    EXPECT_TRUE(manager.status(sub.id)->converged);
}

TEST_F(ServeTest, RejectsNonPositiveMaxEpochs)
{
    // max-epochs=-5 used to return done converged=0 without running.
    JobManager manager(registry);
    for (double cap :
         {-5.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
        JobRequest req = request("web", "pr", "serial");
        req.options.maxEpochs = cap;
        EXPECT_EQ(manager.submit(req).error, SubmitError::BadRequest)
            << "max-epochs=" << cap;
    }
    std::string why;
    JobRequest req = request("web", "pr", "serial");
    req.options.maxEpochs = -5.0;
    EXPECT_FALSE(validate(req, registry.get("web").get(), &why));
    EXPECT_NE(why.find("max-epochs"), std::string::npos) << why;
    req.options.maxEpochs = 0.5;
    EXPECT_TRUE(validate(req, registry.get("web").get(), &why)) << why;
}

TEST_F(ServeTest, RejectsZeroThreads)
{
    // threads=0 used to be clamped to one participant without a word.
    JobManager manager(registry);
    for (const char *engine : {"serial", "async", "accum"}) {
        JobRequest req = request("web", "pr", engine);
        req.options.numThreads = 0;
        const JobManager::Submitted sub = manager.submit(req);
        EXPECT_EQ(sub.error, SubmitError::BadRequest) << engine;
        EXPECT_EQ(sub.reason, "threads must be positive") << engine;
    }
    JobRequest one = request("web", "pr", "async");
    one.options.numThreads = 1;
    const JobManager::Submitted sub = manager.submit(one);
    ASSERT_TRUE(sub.ok()) << sub.reason;
    EXPECT_TRUE(manager.wait(sub.id, 60.0));
}

TEST_F(ServeTest, RejectsNonFinitePriorityAndBadTimeouts)
{
    // A NaN priority breaks the admission heap's strict weak order, and
    // a NaN or negative timeout is not "no deadline" (that is 0).
    JobManager manager(registry);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double priority : {nan, inf, -inf}) {
        JobRequest req = request("web", "pr", "serial");
        req.priority = priority;
        const JobManager::Submitted sub = manager.submit(req);
        EXPECT_EQ(sub.error, SubmitError::BadRequest) << priority;
        EXPECT_EQ(sub.reason, "priority must be finite") << priority;
    }
    for (double timeout : {nan, inf, -5.0}) {
        JobRequest req = request("web", "pr", "serial");
        req.timeoutSeconds = timeout;
        const JobManager::Submitted sub = manager.submit(req);
        EXPECT_EQ(sub.error, SubmitError::BadRequest) << timeout;
        EXPECT_EQ(sub.reason, "timeout must be finite and non-negative")
            << timeout;
    }
    JobRequest ok = request("web", "pr", "serial");
    ok.priority = -3.0;
    ok.timeoutSeconds = 60.0;
    const JobManager::Submitted sub = manager.submit(ok);
    ASSERT_TRUE(sub.ok()) << sub.reason;
    EXPECT_TRUE(manager.wait(sub.id, 60.0));
    EXPECT_EQ(manager.status(sub.id)->state, JobState::Done);
}

TEST_F(ServeTest, InvalidRequestOnAnUnknownGraphIsABadRequest)
{
    // Without a graph, validate runs the checks that need only the
    // request; the graph is looked up for nothing else.
    JobManager manager(registry);
    JobRequest req = request("nope", "pr", "serial");
    req.options.tolerance = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(manager.submit(req).error, SubmitError::BadRequest);
    // A source is checked only against a graph.
    EXPECT_EQ(manager.submit(request("nope", "sssp", "serial", 99999999))
                  .error,
              SubmitError::UnknownGraph);
}

/**
 * The library entry point refuses what serve refuses.  Run, the NaN
 * tolerance and the missing source would both report converged=1 after
 * one epoch.
 */
TEST_F(ServeTest, RunnerRefusesInvalidRequestsWithoutRunning)
{
    auto g = registry.get("web");
    const VertexId n = g->numVertices();
    struct Case
    {
        const char *name;
        JobRequest req;
    };
    std::vector<Case> cases;
    for (const char *engine : {"serial", "async", "accum", "sim"}) {
        JobRequest nan_tol = request("web", "pr", engine);
        nan_tol.options.tolerance =
            std::numeric_limits<double>::quiet_NaN();
        cases.push_back({"tolerance", nan_tol});
        cases.push_back({"source", request("web", "sssp", engine, n)});
        JobRequest no_threads = request("web", "pr", engine);
        no_threads.options.numThreads = 0;
        cases.push_back({"threads", no_threads});
        for (double cap : {0.0, -1.0}) {
            JobRequest capped = request("web", "pr", engine);
            capped.options.maxEpochs = cap;
            cases.push_back({"max-epochs", capped});
        }
    }
    for (Case &c : cases) {
        SCOPED_TRACE(c.req.engine + " " + c.name);
        auto progress = std::make_shared<Progress>();
        c.req.options.progress = progress;
        std::string why;
        EXPECT_FALSE(validate(c.req, g.get(), &why));
        const RunOutcome out = runAnalyticsJob(*g, c.req);
        EXPECT_FALSE(out.ok());
        EXPECT_EQ(out.error, why);
        EXPECT_NE(out.error.find(c.name), std::string::npos) << out.error;
        EXPECT_TRUE(out.values.empty());
        EXPECT_FALSE(out.report.converged);
        EXPECT_EQ(out.report.blockUpdates, 0u);
        EXPECT_EQ(progress->blockUpdates.load(), 0u);
        EXPECT_EQ(progress->vertexUpdates.load(), 0u);
    }
}

TEST_F(ServeTest, RunProgramRefusesCliOnlyProgramsOnInvalidRequests)
{
    // kcore and color have no table row, so nothing but the runner
    // itself checks their requests.
    auto g = registry.get("web");
    JobRequest req = request("web", "kcore", "serial");
    req.options.tolerance = std::numeric_limits<double>::quiet_NaN();
    RunOutcome out = runProgram(*g, KCoreProgram(3), req);
    EXPECT_FALSE(out.ok());
    EXPECT_NE(out.error.find("tolerance"), std::string::npos) << out.error;
    EXPECT_TRUE(out.values.empty());

    req.options.tolerance = 1e-9;
    out = runProgram(*g, KCoreProgram(3), req);
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.values.size(), g->numVertices());
}

TEST_F(ServeTest, CacheHitVsCancelStormNeverLeaksResults)
{
    // Regression: runJob's pop-time cache re-check used to write
    // job->result and startedAt *before* attempting the Queued -> Done
    // CAS, so a concurrent cancel() that won the race left a populated
    // result (and a skewed wait metric) on a Cancelled job.  All
    // outcome writes now happen in finishJob's on_win hook, after the
    // CAS: a job is either Done with the cached result or Cancelled
    // with none — never a hybrid.
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 64;
    JobManager manager(registry, cfg);

    // Occupy both workers so the cacheable jobs stay queued.
    JobManager::Submitted b1 = manager.submit(endlessRequest());
    JobManager::Submitted b2 = manager.submit(endlessRequest());
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(b2.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto s1 = manager.status(b1.id);
        auto s2 = manager.status(b2.id);
        return s1 && s2 && s1->state == JobState::Running &&
               s2->state == JobState::Running;
    }));

    JobRequest req = request("web", "pr", "serial");
    req.allowCached = true;
    constexpr std::size_t kJobs = 24;
    std::vector<JobId> ids;
    for (std::size_t i = 0; i < kJobs; i++) {
        JobManager::Submitted sub = manager.submit(req);
        ASSERT_TRUE(sub.ok()) << to_string(sub.error);
        ids.push_back(sub.id);
    }

    // Inject the cache entry the queued jobs will re-check at pop time
    // (submit() stamps the partition's block size before fingerprinting).
    JobRequest keyed = req;
    keyed.options.blockSize = registry.get("web")->blockSize();
    auto fabricated = std::make_shared<JobResult>();
    fabricated->values = {3.14};
    fabricated->report.converged = true;
    manager.cache().put(jobFingerprint(registry.fingerprint("web"), keyed),
                        fabricated);

    // Release the workers and storm cancels at the same time: pops
    // racing towards Done-via-cache against cancels towards Cancelled.
    std::vector<std::thread> stormers;
    stormers.emplace_back([&] {
        manager.cancel(b1.id);
        manager.cancel(b2.id);
        for (auto it = ids.rbegin(); it != ids.rend(); ++it)
            manager.cancel(*it);
    });
    for (int t = 0; t < 3; t++) {
        stormers.emplace_back([&manager, &ids] {
            for (JobId id : ids)
                manager.cancel(id);
        });
    }
    for (auto &t : stormers)
        t.join();
    ASSERT_TRUE(manager.wait(b1.id, 30.0));
    ASSERT_TRUE(manager.wait(b2.id, 30.0));
    for (JobId id : ids)
        ASSERT_TRUE(manager.wait(id, 30.0)) << "job " << id;

    std::size_t done = 0, cancelled = 0;
    for (JobId id : ids) {
        auto st = manager.status(id);
        ASSERT_TRUE(st.has_value());
        if (st->state == JobState::Done) {
            done++;
            EXPECT_TRUE(st->cacheHit) << "job " << id;
            auto result = manager.result(id);
            ASSERT_NE(result, nullptr) << "job " << id;
            EXPECT_DOUBLE_EQ(result->values.at(0), 3.14);
            EXPECT_TRUE(st->error.empty()) << st->error;
            // Exactly-once startedAt: the wait/run accounting stays
            // monotonic even on the pop-time cache-hit path.
            EXPECT_GE(st->queuedSeconds, 0.0) << "job " << id;
            EXPECT_GE(st->runSeconds, 0.0) << "job " << id;
        } else {
            cancelled++;
            EXPECT_EQ(st->state, JobState::Cancelled) << "job " << id;
            EXPECT_EQ(manager.result(id), nullptr)
                << "cancelled job " << id << " kept a result";
            EXPECT_FALSE(st->cacheHit) << "job " << id;
        }
    }
    const ServeStats stats = manager.stats();
    EXPECT_EQ(done + cancelled, kJobs);
    EXPECT_EQ(stats.completed, done);
    EXPECT_EQ(stats.cacheHits, done);
    EXPECT_EQ(stats.cancelled, cancelled + 2);   // + the two blockers
}

TEST_F(ServeTest, QueuedDeadlineIsNotMisattributedAsCancel)
{
    // Regression: a queued job whose deadline had already expired used
    // to be reported as "cancelled" whenever a cancel() arrived before
    // the worker popped it — the halt cause was guessed from the stop
    // flag instead of from which instant came first.
    ServeConfig cfg;
    cfg.workers = 1;
    JobManager manager(registry, cfg);

    JobManager::Submitted blocker = manager.submit(endlessRequest());
    ASSERT_TRUE(blocker.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(blocker.id);
        return st && st->state == JobState::Running;
    }));

    // Deadline first, cancel second: the deadline is the truth.
    JobRequest doomed = request("road", "pr", "serial");
    doomed.timeoutSeconds = 0.03;
    JobManager::Submitted d = manager.submit(doomed);
    ASSERT_TRUE(d.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_TRUE(manager.cancel(d.id));
    ASSERT_TRUE(manager.wait(d.id, 10.0));
    EXPECT_EQ(manager.status(d.id)->state, JobState::Cancelled);
    EXPECT_EQ(manager.status(d.id)->error,
              "deadline exceeded while queued");

    // Cancel first, deadline nowhere near: a plain user cancel.
    JobRequest roomy = request("road", "pr", "serial");
    roomy.timeoutSeconds = 100.0;
    JobManager::Submitted c = manager.submit(roomy);
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(manager.cancel(c.id));
    ASSERT_TRUE(manager.wait(c.id, 10.0));
    EXPECT_EQ(manager.status(c.id)->error, "cancelled while queued");

    manager.cancel(blocker.id);
}

TEST_F(ServeTest, TenantQuotaCapsConcurrencyWhileOthersProceed)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 8;
    cfg.tenantQos["capped"] = {1.0, /*maxInFlight=*/1, 0};
    JobManager manager(registry, cfg);

    JobRequest first = endlessRequest();
    first.tenant = "capped";
    JobManager::Submitted e1 = manager.submit(first);
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(e1.id);
        return st && st->state == JobState::Running;
    }));

    // The second capped job is admitted but must hold at Queued even
    // though a worker is idle: the tenant's in-flight quota is 1.
    JobRequest second = endlessRequest();
    second.tenant = "capped";
    JobManager::Submitted e2 = manager.submit(second);
    ASSERT_TRUE(e2.ok());

    // Another tenant sails past the held job on the free worker.
    JobRequest other = request("road", "pr", "serial");
    other.tenant = "other";
    JobManager::Submitted quick = manager.submit(other);
    ASSERT_TRUE(quick.ok());
    EXPECT_TRUE(manager.wait(quick.id, 60.0));
    EXPECT_EQ(manager.status(quick.id)->state, JobState::Done);
    EXPECT_EQ(manager.status(e2.id)->state, JobState::Queued);

    // Cancelling the runner frees the quota slot; the held job starts.
    EXPECT_TRUE(manager.cancel(e1.id));
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(e2.id);
        return st && st->state == JobState::Running;
    }));
    EXPECT_TRUE(manager.cancel(e2.id));
    ASSERT_TRUE(manager.wait(e2.id, 10.0));

    const auto tenants = manager.tenantStats();
    ASSERT_TRUE(tenants.count("capped"));
    ASSERT_TRUE(tenants.count("other"));
    EXPECT_EQ(tenants.at("capped").cancelled, 2u);
    EXPECT_EQ(tenants.at("other").completed, 1u);
}

TEST_F(ServeTest, PressureShedsFloodersNewestJobWithDistinctState)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    JobManager manager(registry, cfg);

    JobRequest flood = endlessRequest();
    flood.tenant = "flood";
    JobManager::Submitted blocker = manager.submit(flood);
    ASSERT_TRUE(blocker.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(blocker.id);
        return st && st->state == JobState::Running;
    }));
    JobManager::Submitted f1 = manager.submit(flood);
    JobManager::Submitted f2 = manager.submit(flood);
    ASSERT_TRUE(f1.ok());
    ASSERT_TRUE(f2.ok());

    // The under-share tenant's submission displaces the flooder's
    // newest queued job, which fails fast with the distinct Shed state.
    JobRequest vip = request("road", "pr", "serial");
    vip.tenant = "vip";
    JobManager::Submitted v = manager.submit(vip);
    ASSERT_TRUE(v.ok()) << to_string(v.error);
    ASSERT_TRUE(manager.wait(f2.id, 10.0));
    auto shed = manager.status(f2.id);
    ASSERT_TRUE(shed.has_value());
    EXPECT_EQ(shed->state, JobState::Shed);
    EXPECT_NE(shed->error.find("shed"), std::string::npos) << shed->error;
    EXPECT_EQ(manager.result(f2.id), nullptr);
    EXPECT_EQ(manager.stats().shed, 1u);
    EXPECT_EQ(manager.tenantStats().at("flood").shed, 1u);

    // The flooder's own next push is plain backpressure, not a shed.
    JobManager::Submitted f3 = manager.submit(flood);
    EXPECT_FALSE(f3.ok());
    EXPECT_EQ(f3.error, SubmitError::QueueFull);

    manager.cancel(blocker.id);
    manager.cancel(f1.id);
    manager.cancel(v.id);
}

TEST_F(ServeTest, InfeasibleDeadlineIsShedAtAdmission)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 16;
    cfg.initialServiceEstimateSeconds = 10.0;   // seeded evidence
    JobManager manager(registry, cfg);

    JobManager::Submitted blocker = manager.submit(endlessRequest());
    ASSERT_TRUE(blocker.ok());
    JobManager::Submitted queued = manager.submit(endlessRequest());
    ASSERT_TRUE(queued.ok());

    // One ~10s job is queued ahead; a 50ms deadline cannot make it.
    JobRequest doomed = request("road", "pr", "serial");
    doomed.timeoutSeconds = 0.05;
    JobManager::Submitted shed = manager.submit(doomed);
    EXPECT_FALSE(shed.ok());
    EXPECT_EQ(shed.error, SubmitError::Shed);

    const ServeStats stats = manager.stats();
    EXPECT_EQ(stats.shedAdmission, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(manager.tenantStats().at("default").shedAdmission, 1u);

    // The same request without a deadline is admitted fine.
    JobManager::Submitted ok = manager.submit(
        request("road", "pr", "serial"));
    EXPECT_TRUE(ok.ok()) << to_string(ok.error);

    manager.cancel(blocker.id);
    manager.cancel(queued.id);
    manager.cancel(ok.id);
}

TEST_F(ServeTest, WarmStartAndCacheCrossTenantBoundaries)
{
    // The tenant id buys scheduling fairness, not result isolation:
    // fingerprints deliberately exclude it, so one tenant's fixpoint
    // warm-starts (and exact results serve) every other tenant.
    JobManager manager(registry);
    std::uint64_t warm_starts = 0, cache_hits = 0;
    for (const char *algo : {"pr", "sssp"}) {
        JobRequest coarse = request("web", algo, "serial", 0);
        coarse.tenant = "alpha";
        coarse.allowCached = true;
        coarse.allowWarmStart = true;
        coarse.options.tolerance = 1e-6;
        JobManager::Submitted a = manager.submit(coarse);
        ASSERT_TRUE(a.ok()) << algo;
        ASSERT_TRUE(manager.wait(a.id, 60.0)) << algo;

        // A different tenant's tighter-tolerance run warm-starts from
        // alpha's fixpoint...
        JobRequest fine = coarse;
        fine.tenant = "beta";
        fine.options.tolerance = 1e-10;
        JobManager::Submitted b = manager.submit(fine);
        ASSERT_TRUE(b.ok()) << algo;
        ASSERT_TRUE(manager.wait(b.id, 60.0)) << algo;
        auto bst = manager.status(b.id);
        ASSERT_TRUE(bst.has_value());
        EXPECT_EQ(bst->state, JobState::Done) << algo;
        EXPECT_TRUE(bst->warmStarted) << algo;
        warm_starts++;

        // ...and a third tenant's identical submission is an exact
        // cross-tenant cache hit sharing beta's result object.
        JobRequest same = fine;
        same.tenant = "gamma";
        JobManager::Submitted c = manager.submit(same);
        ASSERT_TRUE(c.ok()) << algo;
        ASSERT_TRUE(manager.wait(c.id, 60.0)) << algo;
        EXPECT_TRUE(manager.status(c.id)->cacheHit) << algo;
        EXPECT_EQ(manager.result(c.id).get(), manager.result(b.id).get())
            << algo;
        cache_hits++;

        // The warm-started run still lands on the true fixpoint.
        auto g = registry.get("web");
        JobRequest direct = fine;
        direct.allowCached = false;
        direct.allowWarmStart = false;
        direct.options.blockSize = g->blockSize();
        RunOutcome expected = runAnalyticsJob(*g, direct);
        ASSERT_TRUE(expected.ok()) << expected.error;
        auto warm = manager.result(b.id);
        ASSERT_EQ(warm->values.size(), expected.values.size()) << algo;
        for (std::size_t vtx = 0; vtx < expected.values.size(); vtx++)
            EXPECT_NEAR(warm->values[vtx], expected.values[vtx], 1e-8)
                << algo << " vertex " << vtx;
    }
    EXPECT_EQ(manager.stats().warmStarts, warm_starts);
    EXPECT_EQ(manager.stats().cacheHits, cache_hits);
    EXPECT_EQ(manager.tenantStats().at("beta").warmStarts, warm_starts);
    EXPECT_EQ(manager.tenantStats().at("gamma").cacheHits, cache_hits);
}

// ---------------------------------------------------------------------
// Multi-tenant storm (scaled up in the tsan CI leg via
// GRAPHABCD_QOS_STRESS_ITERS, like the block pump stress tests).

TEST(ServeQosStress, MultiTenantCancelShedStorm)
{
    int iters = 2;
    if (const char *env = std::getenv("GRAPHABCD_QOS_STRESS_ITERS"))
        iters = std::max(1, std::atoi(env));

    Rng rng(91);
    GraphRegistry registry;
    registry.add("g", generateRmat(120, 700, rng, {.weighted = true}),
                 32);
    registry.add(kSwap, generateCycle(2), 32);

    for (int iter = 0; iter < iters; iter++) {
        ServeConfig cfg;
        cfg.workers = 2;
        cfg.queueCapacity = 8;
        cfg.maxRetainedJobs = 4096;
        cfg.tenantQos["gold"] = {4.0, 0, 0};
        cfg.tenantQos["free"] = {1.0, /*maxInFlight=*/1, /*maxQueued=*/4};
        JobManager manager(registry, cfg);

        std::mutex ids_mtx;
        std::vector<JobId> ids;
        std::atomic<bool> storm_done{false};

        auto client = [&](const std::string &tenant, unsigned seed) {
            std::mt19937 gen(seed);
            for (int i = 0; i < 40; i++) {
                JobRequest req;
                req.graph = "g";
                req.algo = "pr";
                req.engine = "serial";
                req.tenant = tenant;
                req.options.numThreads = 1;
                req.allowCached = false;
                req.allowWarmStart = false;
                switch (gen() % 4) {
                case 0:   // endless: cancel bait
                    req = endlessRequest();
                    req.tenant = tenant;
                    break;
                case 1:   // doomed deadline: shed or deadline-cancel
                    req.timeoutSeconds = 0.001;
                    break;
                default:   // quick real job
                    break;
                }
                JobManager::Submitted sub = manager.submit(req);
                if (sub.ok()) {
                    std::lock_guard<std::mutex> lock(ids_mtx);
                    ids.push_back(sub.id);
                }
                if (gen() % 8 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(500));
                }
            }
        };
        std::vector<std::thread> clients;
        clients.emplace_back(client, "gold", 1000u + iter);
        clients.emplace_back(client, "gold", 2000u + iter);
        clients.emplace_back(client, "free", 3000u + iter);
        clients.emplace_back(client, "free", 4000u + iter);
        std::thread canceller([&] {
            std::mt19937 gen(5000u + iter);
            while (!storm_done.load(std::memory_order_acquire)) {
                JobId id = 0;
                {
                    std::lock_guard<std::mutex> lock(ids_mtx);
                    if (!ids.empty())
                        id = ids[gen() % ids.size()];
                }
                if (id != 0)
                    manager.cancel(id);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        });
        for (auto &t : clients)
            t.join();
        storm_done.store(true, std::memory_order_release);
        canceller.join();

        // Drain: cancel whatever is left, then wait for every admitted
        // job to reach a terminal state.
        for (JobId id : ids)
            manager.cancel(id);
        for (JobId id : ids)
            ASSERT_TRUE(manager.wait(id, 60.0)) << "job " << id;

        // Cancelled queue entries are removed lazily (workers pop and
        // skip them), so give the gauges a moment to drain to zero.
        EXPECT_TRUE(waitUntil([&] {
            const ServeStats st = manager.stats();
            return st.queueDepth == 0 && st.running == 0;
        })) << "iter " << iter;

        // Conservation: every submission is accounted for exactly once.
        const ServeStats s = manager.stats();
        EXPECT_EQ(s.submitted, s.rejected + s.completed + s.cancelled +
                                   s.failed + s.shed)
            << "iter " << iter;
        EXPECT_EQ(s.failed, 0u) << "iter " << iter;

        // The per-tenant slices sum to the global counters.
        ServeStats sum;
        for (const auto &[tenant, ts] : manager.tenantStats()) {
            sum.submitted += ts.submitted;
            sum.rejected += ts.rejected;
            sum.completed += ts.completed;
            sum.cancelled += ts.cancelled;
            sum.failed += ts.failed;
            sum.shed += ts.shed;
            sum.shedAdmission += ts.shedAdmission;
            sum.cacheHits += ts.cacheHits;
            sum.warmStarts += ts.warmStarts;
            EXPECT_EQ(ts.queueDepth, 0u) << tenant << " iter " << iter;
            EXPECT_EQ(ts.running, 0u) << tenant << " iter " << iter;
        }
        EXPECT_EQ(sum.submitted, s.submitted) << "iter " << iter;
        EXPECT_EQ(sum.rejected, s.rejected) << "iter " << iter;
        EXPECT_EQ(sum.completed, s.completed) << "iter " << iter;
        EXPECT_EQ(sum.cancelled, s.cancelled) << "iter " << iter;
        EXPECT_EQ(sum.failed, s.failed) << "iter " << iter;
        EXPECT_EQ(sum.shed, s.shed) << "iter " << iter;
        EXPECT_EQ(sum.shedAdmission, s.shedAdmission) << "iter " << iter;
        EXPECT_EQ(sum.cacheHits, s.cacheHits) << "iter " << iter;
        EXPECT_EQ(sum.warmStarts, s.warmStarts) << "iter " << iter;
    }
}

TEST_F(ServeTest, ShutdownCancelsOutstandingJobs)
{
    ServeConfig cfg;
    cfg.workers = 1;
    JobManager manager(registry, cfg);
    JobManager::Submitted running = manager.submit(endlessRequest());
    JobManager::Submitted queued = manager.submit(endlessRequest());
    ASSERT_TRUE(running.ok());
    ASSERT_TRUE(queued.ok());
    ASSERT_TRUE(waitUntil([&] {
        auto st = manager.status(running.id);
        return st && st->state == JobState::Running;
    }));

    manager.shutdown();   // must terminate the endless engine run
    EXPECT_EQ(manager.status(running.id)->state, JobState::Cancelled);
    EXPECT_EQ(manager.status(queued.id)->state, JobState::Cancelled);
}

} // namespace
} // namespace graphabcd
