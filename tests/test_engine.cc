/**
 * @file
 * Correctness of the serial BCD engine across the full design-option
 * spectrum: every (block size x schedule x execution mode) combination
 * must reach the same fixed point as the exact references, for PageRank,
 * SSSP, BFS and Connected Components.  The Published tests pin what
 * GATHER reads: each source's copy as of its last SCATTER.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/engine.hh"
#include "graph/generators.hh"

namespace graphabcd {
namespace {

struct EngineCase
{
    VertexId blockSize;
    Schedule schedule;
    ExecMode mode;
};

std::string
caseName(const testing::TestParamInfo<EngineCase> &info)
{
    const EngineCase &c = info.param;
    return std::string("bs") + std::to_string(c.blockSize) + "_" +
           to_string(c.schedule) + "_" + to_string(c.mode);
}

std::vector<EngineCase>
allCases()
{
    std::vector<EngineCase> cases;
    for (VertexId bs : {1u, 7u, 32u, 100000u}) {
        for (Schedule sched : {Schedule::Cyclic, Schedule::Priority,
                               Schedule::Random}) {
            for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp})
                cases.push_back({bs, sched, mode});
        }
    }
    return cases;
}

class EngineSweep : public testing::TestWithParam<EngineCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = GetParam().blockSize;
        opt.schedule = GetParam().schedule;
        opt.mode = GetParam().mode;
        opt.seed = 3;
        return opt;
    }
};

TEST_P(EngineSweep, PageRankMatchesPowerIteration)
{
    Rng rng(31);
    EdgeList el = generateRmat(300, 2400, rng);
    EngineOptions opt = options();
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);

    SerialEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-7) << "vertex " << v;
    // At the fixed point the Eq. (3) gradient must be ~0.
    EXPECT_LT(pagerankResidual(g, x, 0.85), 1e-7);
}

TEST_P(EngineSweep, SsspMatchesDijkstra)
{
    Rng rng(32);
    EdgeList el = generateRmat(300, 2400, rng,
                               {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    SerialEngine<SsspProgram> engine(g, SsspProgram(0), opt);
    std::vector<double> dist;
    EngineReport report = engine.run(dist);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = dijkstraReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(EngineSweep, BfsMatchesReference)
{
    Rng rng(33);
    EdgeList el = generateRmat(256, 1500, rng);
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    SerialEngine<BfsProgram> engine(g, BfsProgram(0), opt);
    std::vector<double> depth;
    EngineReport report = engine.run(depth);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = bfsReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(depth[v], ref[v]) << "vertex " << v;
}

TEST_P(EngineSweep, ConnectedComponentsMatchUnionFind)
{
    Rng rng(34);
    // Sparse so several components exist.
    EdgeList el = generateErdosRenyi(400, 300, rng);
    EdgeList sym = el.symmetrized();
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(sym, opt.blockSize);

    SerialEngine<CcProgram> engine(g, CcProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = ccReference(el);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(labels[v], ref[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(DesignSpectrum, EngineSweep,
                         testing::ValuesIn(allCases()), caseName);

// ------------------------------------------------------------ reporting

TEST(EngineReport, AccountsWorkConsistently)
{
    Rng rng(35);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);

    EXPECT_GT(report.blockUpdates, 0u);
    EXPECT_GT(report.vertexUpdates, 0u);
    EXPECT_GT(report.edgeTraversals, 0u);
    EXPECT_NEAR(report.epochs,
                static_cast<double>(report.vertexUpdates) /
                    el.numVertices(),
                1e-9);
    // Every block update touches at most blockSize vertices.
    EXPECT_LE(report.vertexUpdates,
              report.blockUpdates * static_cast<std::uint64_t>(32));
}

TEST(EngineReport, MaxEpochsStopsDivergentRuns)
{
    // On a chain the uniform start is far from the PR fixed point and
    // deltas shrink only geometrically, so tolerance 0 cannot quiesce
    // within 2 epochs.
    EdgeList el = generateChain(64);
    EngineOptions opt;
    opt.blockSize = 8;
    opt.tolerance = 0.0;
    opt.maxEpochs = 2.0;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_FALSE(report.converged);
    EXPECT_LE(report.epochs, 2.0 + 8.0 / 64.0 + 1e-9);
}

TEST(EngineTrace, SamplesAtRequestedInterval)
{
    Rng rng(36);
    EdgeList el = generateRmat(128, 1024, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.tolerance = 1e-10;
    opt.traceInterval = 1.0;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

    std::vector<double> epochs;
    std::vector<double> x;
    EngineReport report = engine.run(
        x, [&epochs](double e, const std::vector<double> &) {
            epochs.push_back(e);
        });
    ASSERT_FALSE(epochs.empty());
    // One callback per crossed interval boundary, at increasing epochs.
    const double expected = std::floor(report.epochs / opt.traceInterval);
    EXPECT_NEAR(static_cast<double>(epochs.size()), expected, 1.0);
    for (std::size_t i = 1; i < epochs.size(); i++)
        EXPECT_GT(epochs[i], epochs[i - 1]);
}

// --------------------------------------------- convergence-rate shapes

double
pagerankEpochs(const EdgeList &el, VertexId block_size, Schedule sched)
{
    EngineOptions opt;
    opt.blockSize = block_size;
    opt.schedule = sched;
    opt.tolerance = 1e-9;
    opt.mode = block_size >= el.numVertices() ? ExecMode::Bsp
                                              : ExecMode::Async;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    return engine.run(x).epochs;
}

TEST(ConvergenceShape, SmallerBlocksConvergeInFewerEpochs)
{
    // The paper's Fig. 4 monotonicity: Gauss-Seidel with smaller blocks
    // commits updates earlier, so fewer |V|-normalised updates are
    // needed than BSP (block size |V|).
    Rng rng(37);
    EdgeList el = generateRmat(1024, 8192, rng);
    double bsp = pagerankEpochs(el, el.numVertices(), Schedule::Cyclic);
    double big = pagerankEpochs(el, 256, Schedule::Cyclic);
    double small = pagerankEpochs(el, 16, Schedule::Cyclic);
    EXPECT_LT(big, bsp);
    EXPECT_LT(small, big * 1.05);   // allow slight noise, expect <=
    EXPECT_LT(small, bsp);
}

double
pagerankEpochsToResidual(const EdgeList &el, VertexId block_size,
                         Schedule sched, double eps)
{
    EngineOptions opt;
    opt.blockSize = block_size;
    opt.schedule = sched;
    opt.tolerance = 1e-12;
    opt.maxEpochs = 200.0;
    opt.traceInterval = 0.5;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(
        x, nullptr,
        [&g, eps](double, const std::vector<double> &values) {
            return pagerankResidual(g, values, 0.85) < eps;
        });
    EXPECT_TRUE(report.converged);
    return report.epochs;
}

TEST(ConvergenceShape, PriorityBeatsCyclicUnderObjectiveStop)
{
    // The paper's convergence criterion is objective discrepancy, not
    // active-list quiescence; under it, Gauss-Southwell priority
    // front-loads the objective decrease and crosses the threshold in
    // fewer epochs, most visibly at small block sizes (Sec. V-B).
    Rng rng(38);
    EdgeList el = generateRmat(16384, 131072, rng);
    double cyclic =
        pagerankEpochsToResidual(el, 8, Schedule::Cyclic, 1e-9);
    double priority =
        pagerankEpochsToResidual(el, 8, Schedule::Priority, 1e-9);
    EXPECT_LT(priority, cyclic);
}

TEST(ConvergenceShape, AsyncGsAndJacobiReachTheSameFixedPoint)
{
    Rng rng(39);
    EdgeList el = generateRmat(512, 4096, rng);
    EngineOptions gs;
    gs.blockSize = 64;
    gs.tolerance = 1e-12;
    EngineOptions bsp = gs;
    bsp.mode = ExecMode::Bsp;

    BlockPartition g(el, 64);
    std::vector<double> a, b;
    SerialEngine<PageRankProgram>(g, PageRankProgram(), gs).run(a);
    SerialEngine<PageRankProgram>(g, PageRankProgram(), bsp).run(b);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(a[v], b[v], 1e-8);
}

// ------------------------------------------------- published copies

/**
 * A vertex moving by <= tol does not scatter: its value changes, its
 * published copy does not, and an out-neighbour's next GATHER reads the
 * old copy.  Once it moves by more than tol, the scatter's priority is
 * measured from that old copy, not from the unpublished value.
 */
TEST(Published, SubToleranceMoveKeepsThePreviousCopy)
{
    // 0 <-> 1, one vertex per block; PR starts both at 1/2.
    EdgeList el(2);
    el.addEdge(0, 1);
    el.addEdge(1, 0);
    const BlockPartition g(el, 1);
    const PageRankProgram pr(0.85);
    const double tol = 1e-3;
    BcdState<PageRankProgram> state(g, pr);

    BlockUpdate<double> small;
    small.block = 0;
    small.newValues = {0.5005};
    small.deltas = {0.0005};
    auto sched = makeScheduler(Schedule::Priority, g.numBlocks(), 7);
    EXPECT_EQ(state.commitBlock(g, pr, small, tol, sched.get()).scatters,
              0u);
    EXPECT_DOUBLE_EQ(state.value(0), 0.5005);
    EXPECT_FALSE(sched->next().has_value());
    // 0.15 / 2 + 0.85 * (0.5 / outdeg 1): the copy of 0.5, not 0.5005.
    EXPECT_DOUBLE_EQ(state.processBlock(g, pr, 1, tol).newValues[0],
                     0.075 + 0.85 * 0.5);

    BlockUpdate<double> big;
    big.block = 0;
    big.newValues = {0.6};
    big.deltas = {0.0995};
    EXPECT_EQ(state.commitBlock(g, pr, big, tol, sched.get()).scatters,
              1u);
    EXPECT_NEAR(sched->priority(1), 0.6 - 0.5, 1e-15);
    EXPECT_DOUBLE_EQ(state.processBlock(g, pr, 1, tol).newValues[0],
                     0.075 + 0.85 * 0.6);
}

/**
 * One BSP superstep over three one-vertex blocks reads only the copies
 * published before the step: its result is the hand-computed Jacobi
 * step.  Gauss-Seidel over the same blocks reads a copy committed
 * earlier in the sweep.
 */
TEST(Published, BspSuperstepReadsOnlyPreStepCopies)
{
    // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0: out-degrees 2, 1, 1.
    EdgeList el(3);
    el.addEdge(0, 1);
    el.addEdge(0, 2);
    el.addEdge(1, 2);
    el.addEdge(2, 0);
    const BlockPartition g(el, 1);
    const std::vector<double> x0{0.6, 0.3, 0.1};
    // x_v = 0.15 / 3 + 0.85 * sum_u x0_u / outdeg(u).
    const std::vector<double> jacobi{0.05 + 0.85 * 0.1,
                                     0.05 + 0.85 * (0.6 / 2),
                                     0.05 + 0.85 * (0.6 / 2 + 0.3)};

    EngineOptions opt;
    opt.blockSize = 1;
    opt.tolerance = 0.0;
    opt.maxEpochs = 1.0;
    opt.warmStart = std::make_shared<const std::vector<double>>(x0);
    opt.mode = ExecMode::Bsp;

    std::vector<double> serial;
    const EngineReport sr =
        SerialEngine<PageRankProgram>(g, PageRankProgram(), opt)
            .run(serial);
    EXPECT_EQ(sr.vertexUpdates, 3u);
    for (VertexId v = 0; v < 3; v++)
        EXPECT_DOUBLE_EQ(serial[v], jacobi[v]) << "vertex " << v;

    // The cycle 0 -> 2 -> 0 makes any block order read one new copy.
    opt.mode = ExecMode::Async;
    std::vector<double> gs;
    SerialEngine<PageRankProgram>(g, PageRankProgram(), opt).run(gs);
    double diff = 0.0;
    for (VertexId v = 0; v < 3; v++)
        diff += std::abs(gs[v] - jacobi[v]);
    EXPECT_GT(diff, 1e-3);
}

} // namespace
} // namespace graphabcd
