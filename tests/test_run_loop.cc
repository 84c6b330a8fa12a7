/**
 * @file
 * Tests of the run machinery the engines share: the convergence
 * contract RunAccounting gives every engine (the HARP simulator
 * included), BlockPump's recycling of participant state and staleness
 * bound, and a cancel storm over both BlockPump users (async and accum)
 * for the sanitizer legs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/block_pump.hh"
#include "core/engine.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"
#include "harp/system.hh"
#include "obs/convergence.hh"
#include "runtime/executor.hh"

namespace graphabcd {
namespace {

/** One way of running PageRank, named as the serve layer names it. */
enum class Runner
{
    Serial,
    Jacobi,
    Async,
    AccumCyclic,
    AccumPriority,
    Sim,
};

const char *
runnerName(Runner r)
{
    switch (r) {
      case Runner::Serial: return "serial";
      case Runner::Jacobi: return "jacobi";
      case Runner::Async: return "async";
      case Runner::AccumCyclic: return "accum_cyclic";
      case Runner::AccumPriority: return "accum_priority";
      case Runner::Sim: return "sim";
    }
    return "?";
}

std::string
paramName(const testing::TestParamInfo<Runner> &info)
{
    return runnerName(info.param);
}

/**
 * Run PageRank under `r`; opt.mode / schedule are set here.  Sim runs
 * the HARP simulator with the default HarpConfig and returns its
 * engine report.
 */
EngineReport
runPageRank(Runner r, const BlockPartition &g, EngineOptions opt,
            std::vector<double> &x)
{
    switch (r) {
      case Runner::Serial:
      case Runner::Jacobi:
        opt.mode = r == Runner::Jacobi ? ExecMode::Bsp : ExecMode::Async;
        return SerialEngine<PageRankProgram>(g, PageRankProgram(0.85), opt)
            .run(x);
      case Runner::Async:
        return AsyncEngine<PageRankProgram>(g, PageRankProgram(0.85), opt)
            .run(x);
      case Runner::AccumCyclic:
      case Runner::AccumPriority:
        opt.schedule = r == Runner::AccumPriority ? Schedule::Priority
                                                  : Schedule::Cyclic;
        return AccumEngine<PageRankProgram>(
                   g, PageRankProgram(0.85), opt)
            .run(x);
      case Runner::Sim:
        return HarpSystem<PageRankProgram>(g, PageRankProgram(0.85), opt,
                                           HarpConfig{})
            .run(x)
            .engine;
    }
    return {};
}

// ------------------------------------------------ convergence contract

#if GRAPHABCD_OBS_ENABLED

class ConvergenceContract : public testing::TestWithParam<Runner>
{
};

/**
 * Every engine's convergence series obeys one contract: epochs never
 * go backwards, the final point is the report, and a window's active
 * vertex count never exceeds the run's vertex updates.  The last bound
 * caught the accum engine subtracting folds from applies on uint64
 * (a final point of activeVertices = 2^64 - 106720 on RMAT 16k).  The
 * simulator's points also carry simulated time, which never falls and
 * is positive at the end.
 */
TEST_P(ConvergenceContract, SeriesMatchesTheReport)
{
    Rng rng(97);
    EdgeList el = generateRmat(4096, 32768, rng);
    EngineOptions opt;
    opt.blockSize = 64;
    opt.numThreads = 2;
    opt.tolerance = 1e-7;
    auto series = std::make_shared<ConvergenceSeries>(
        1, std::string("contract-") + runnerName(GetParam()));
    opt.convergence = series;
    BlockPartition g(el, opt.blockSize);

    std::vector<double> x;
    const EngineReport report = runPageRank(GetParam(), g, opt, x);
    EXPECT_TRUE(report.converged);

    const std::vector<ConvergencePoint> pts = series->points();
    ASSERT_FALSE(pts.empty());
    for (std::size_t i = 0; i < pts.size(); i++) {
        if (i > 0) {
            EXPECT_LE(pts[i - 1].epochs, pts[i].epochs)
                << "epochs fell at sample " << i;
        }
        EXPECT_LE(pts[i].activeVertices, report.vertexUpdates)
            << "sample " << i;
    }
    EXPECT_DOUBLE_EQ(pts.back().epochs, report.epochs);
    EXPECT_EQ(pts.back().vertexUpdates, report.vertexUpdates);
    EXPECT_DOUBLE_EQ(pts.back().residual, report.residual);

    if (GetParam() == Runner::Sim) {
        for (std::size_t i = 1; i < pts.size(); i++) {
            EXPECT_LE(pts[i - 1].simSeconds, pts[i].simSeconds)
                << "simulated time fell at sample " << i;
        }
        EXPECT_GT(pts.back().simSeconds, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ConvergenceContract,
    testing::Values(Runner::Serial, Runner::Jacobi, Runner::Async,
                    Runner::AccumCyclic, Runner::AccumPriority,
                    Runner::Sim),
    paramName);

#endif // GRAPHABCD_OBS_ENABLED

// ------------------------------------------ participant state recycling

std::atomic<int> localsBuilt{0};

/** A pump Local that counts its default constructions. */
struct CountingLocal
{
    CountingLocal() { localsBuilt.fetch_add(1); }
};

/**
 * A participant's Local (the accum engine's O(|V|) buffer) travels
 * with its activation batch through the pump's idle list, so pool tasks
 * that requeue every 32 blocks never build a new one: a run builds at
 * most `participation` of them, however many quanta it pumps.
 */
TEST(BlockPump, BuildsAtMostOneLocalPerParticipant)
{
    constexpr BlockId kBlocks = 8192;   // 256 quanta of 32 blocks
    constexpr std::uint32_t kParticipation = 4;
    EngineOptions opt;
    opt.numThreads = kParticipation;
    opt.executor = std::make_shared<Executor>(kParticipation - 1);
    auto sched = makeSeededScheduler(Schedule::Cyclic, kBlocks, 1);
    RunAccounting acct("test.pump.run", kBlocks, opt);

    std::atomic<std::uint64_t> processed{0};
    auto kernel = [&processed](BlockId, CountingLocal &,
                               BlockActivations &) {
        // Long enough for pool participants to claim a share and
        // requeue, short enough to keep the test fast.
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < until) {
        }
        processed.fetch_add(1);
        BlockWork work;
        work.vertices = 1;
        return work;
    };
    const PumpConfig cfg{"test.pump", kParticipation, 1, kBlocks};
    localsBuilt.store(0);
    const EngineReport report =
        BlockPump<CountingLocal, decltype(kernel)>(cfg, *sched, acct, opt,
                                                   kernel)
            .run();
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(processed.load(), kBlocks);
    EXPECT_GE(localsBuilt.load(), 1);
    EXPECT_LE(localsBuilt.load(), static_cast<int>(kParticipation));
}

/**
 * Every claim checks, in every build, that the blocks counted since the
 * item entered the FIFO stay within window + participation (a panic
 * otherwise).  Four participants on R-MAT keep the FIFO full and
 * commits interleaved with claims.
 */
TEST(BlockPump, StalenessStaysUnderTheWindowBound)
{
    Rng rng(41);
    EdgeList el = generateRmat(4096, 32768, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 4;
    opt.tolerance = 1e-10;
    opt.executor = std::make_shared<Executor>(3);
    BlockPartition g(el, opt.blockSize);

    std::vector<double> x;
    const EngineReport report =
        AsyncEngine<PageRankProgram>(g, PageRankProgram(), opt).run(x);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.blockUpdates, 4u * g.numBlocks());
    // Quiescence promises that no vertex's last move exceeded tol, not
    // a per-vertex distance to the fixed point: a hub can sit further
    // off than any single move.  The PageRank update is an L1
    // contraction by alpha, so ||x - x*||_1 <= ||r||_1 / (1 - alpha)
    // for the residual r of one more sweep.  At quiescence ||r||_1 is
    // of order |V| * tol: each vertex's last move was at most tol, and
    // so was every move its in-neighbours made after it.  Allow 10x,
    // as the Registry suite does for the PageRank mass.
    const std::vector<double> ref = pagerankReference(el, 0.85);
    double l1 = 0.0;
    for (VertexId v = 0; v < el.numVertices(); v++)
        l1 += std::abs(x[v] - ref[v]);
    EXPECT_LE(l1, 10.0 * el.numVertices() * opt.tolerance / (1.0 - 0.85));
}

// ------------------------------------------------- pump cancel storm

class PumpStress : public testing::TestWithParam<Runner>
{
};

/**
 * The TSan target for the shared BlockPump: 8 participants, a stop
 * token fired at staggered points from before the run to past
 * quiescence.  The accum instance hands block accumulators between
 * participants under the per-block locks.
 * GRAPHABCD_PUMP_STRESS_ITERS scales the
 * iteration count (tools/ci.sh raises it on the TSan leg).
 */
TEST_P(PumpStress, CancelStorm8Threads)
{
    int iters = 4;
    if (const char *env = std::getenv("GRAPHABCD_PUMP_STRESS_ITERS"))
        iters = std::max(1, std::atoi(env));

    Rng rng(90);
    EdgeList el = generateRmat(1024, 8192, rng);
    BlockPartition g(el, 32);
    std::vector<double> ref = pagerankReference(el, 0.85);

    for (int it = 0; it < iters; it++) {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.numThreads = 8;
        opt.tolerance = 1e-10;

        StopSource stop;
        opt.stop = stop.token();

        // 0 fires before any block is claimed; larger delays land
        // mid-run or after quiescence.
        std::atomic<bool> fired{false};
        std::thread trigger([&] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(it * 400));
            stop.requestStop();
            fired.store(true);
        });

        std::vector<double> x;
        EngineReport report = runPageRank(GetParam(), g, opt, x);
        trigger.join();
        ASSERT_TRUE(fired.load());

        if (report.converged) {
            // A run that beat the trigger must be a correct fixpoint.
            for (VertexId v = 0; v < el.numVertices(); v++)
                ASSERT_NEAR(x[v], ref[v], 1e-5) << "vertex " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Users, PumpStress,
                         testing::Values(Runner::Async,
                                         Runner::AccumCyclic),
                         paramName);

} // namespace
} // namespace graphabcd
