/**
 * @file
 * Tests of the process-wide work-stealing Executor: task execution and
 * reuse, per-job participation bounds, work stealing under skewed
 * shards, and clean drain/reuse when an engine run is cancelled
 * mid-flight through a StopToken.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "core/async_engine.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"
#include "runtime/executor.hh"
#include "runtime/parallel_for.hh"

namespace graphabcd {
namespace {

TEST(Executor, RunsEveryTaskAndWaitJoins)
{
    Executor ex(4);
    EXPECT_EQ(ex.size(), 4u);
    auto job = ex.createJob(4);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; i++)
        job->submit([&sum, i] { sum.fetch_add(i); });
    job->wait();
    EXPECT_EQ(sum.load(), 5050);
    EXPECT_EQ(job->pending(), 0u);
}

/** runTasks runs each task once, the caller taking part; no task runs
 *  for a count of zero. */
TEST(RunTasks, RunsEveryTaskOnce)
{
    Executor one(1), four(4);
    for (Executor *exec : {&one, &four}) {
        for (std::size_t tasks : {0, 1, 2, 7, 64}) {
            std::vector<std::atomic<int>> runs(tasks);
            runTasks(exec, tasks, [&](std::size_t t) { runs[t]++; });
            for (std::size_t t = 0; t < tasks; t++)
                EXPECT_EQ(runs[t].load(), 1) << tasks << " tasks, " << t;
        }
    }
    EXPECT_EQ(taskCount(0, 8), 1u);
    EXPECT_EQ(taskCount(17, 8), 3u);
    EXPECT_EQ(taskRange(2, 17, 8), (std::pair<std::uint64_t,
                                              std::uint64_t>{16, 17}));
}

TEST(Executor, ZeroWorkersSizesToHardware)
{
    Executor ex(0);
    EXPECT_GE(ex.size(), 1u);
    auto job = ex.createJob(2);
    std::atomic<int> ran{0};
    job->submit([&ran] { ran.fetch_add(1); });
    job->wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(Executor, JobIsReusableAcrossWaves)
{
    // A drained Job accepts new submissions: this is the BSP pattern,
    // one wait() barrier per superstep on one handle.
    Executor ex(3);
    auto job = ex.createJob(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 10; wave++) {
        for (int t = 0; t < 7; t++)
            job->submit([&count] { count.fetch_add(1); });
        job->wait();
        EXPECT_EQ(count.load(), (wave + 1) * 7);
    }
}

TEST(Executor, ParticipationBoundCapsConcurrency)
{
    Executor ex(8);
    auto job = ex.createJob(2);
    std::atomic<int> cur{0};
    std::atomic<int> peak{0};
    for (int i = 0; i < 64; i++) {
        job->submit([&cur, &peak] {
            int now = cur.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            cur.fetch_sub(1);
        });
    }
    job->wait();
    EXPECT_LE(peak.load(), 2);
    EXPECT_GE(peak.load(), 1);
}

TEST(Executor, TwoJobsShareThePoolWithoutInterference)
{
    Executor ex(4);
    auto a = ex.createJob(2);
    auto b = ex.createJob(2);
    std::atomic<int> na{0}, nb{0};
    for (int i = 0; i < 50; i++) {
        a->submit([&na] { na.fetch_add(1); });
        b->submit([&nb] { nb.fetch_add(1); });
    }
    a->wait();
    b->wait();
    EXPECT_EQ(na.load(), 50);
    EXPECT_EQ(nb.load(), 50);
}

TEST(Executor, StealsFromSkewedShards)
{
    // Round-robin spreads tasks over the shards, but the slow tasks
    // all land in one "heavy" residue class, so the workers that drain
    // their own shard first must steal the remainder.
    Executor ex(4);
    auto job = ex.createJob(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; i++) {
        const bool heavy = (i % 4) == 0;
        job->submit([&ran, heavy] {
            if (heavy)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(300));
            ran.fetch_add(1);
        });
    }
    job->wait();
    EXPECT_EQ(ran.load(), 200);
    const Executor::Stats stats = ex.stats();
    EXPECT_EQ(stats.executed, 200u);
    EXPECT_GT(stats.steals, 0u);
}

TEST(Executor, DrainsCleanlyAfterStopTokenAndRunsAgain)
{
    // An engine run cancelled mid-flight must leave the pool clean:
    // no orphaned tasks, and the very same executor runs the next job
    // to the correct fixpoint.
    Rng rng(77);
    EdgeList el = generateRmat(400, 3200, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.numThreads = 4;
    opt.tolerance = -1.0;   // never quiescent: cancel bait
    opt.executor = std::make_shared<Executor>(4);
    BlockPartition g(el, opt.blockSize);

    StopSource source;
    opt.stop = source.token();
    std::thread firing([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        source.requestStop();
    });
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    firing.join();
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);

    // Same pool, fresh run, sane options: must match the reference.
    EngineOptions opt2 = opt;
    opt2.stop = StopToken();
    opt2.tolerance = 1e-12;
    AsyncEngine<PageRankProgram> engine2(g, PageRankProgram(0.85), opt2);
    EngineReport report2 = engine2.run(x);
    EXPECT_TRUE(report2.converged);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST(Executor, SharedPoolIsOneProcessWideInstance)
{
    const std::shared_ptr<Executor> &a = Executor::shared();
    const std::shared_ptr<Executor> &b = Executor::shared();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_GE(a->size(), 1u);
}

} // namespace
} // namespace graphabcd
