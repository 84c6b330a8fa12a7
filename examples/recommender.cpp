/**
 * @file
 * Recommendation scenario: train Collaborative Filtering (matrix
 * factorization) on a synthetic user-movie rating graph with the serial
 * BCD engine, watch the RMSE descend per epoch, and produce top-N movie
 * recommendations for one user — the wide-value workload that stresses
 * the edge-carried pull-push layout.
 *
 * Usage: ./build/examples/recommender [--users N] [--movies N] ...
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "algorithms/cf.hh"
#include "core/engine.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "support/flags.hh"

using namespace graphabcd;

namespace {

constexpr std::uint32_t H = 16;

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declareInt("users", 2000, "number of users");
    flags.declareInt("movies", 500, "number of movies");
    flags.declareInt("ratings", 60000, "number of ratings");
    flags.declareInt("epochs", 25, "training epochs");
    flags.declareInt("seed", 11, "dataset seed");
    if (!flags.parse(argc, argv))
        return 0;

    const auto users = static_cast<VertexId>(flags.getInt("users"));
    const auto movies = static_cast<VertexId>(flags.getInt("movies"));
    Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
    BipartiteGraph data = generateRatings(
        users, movies,
        static_cast<EdgeId>(flags.getInt("ratings")), rng);
    std::printf("ratings: %u users x %u movies, %llu ratings\n", users,
                movies,
                static_cast<unsigned long long>(data.graph.numEdges()));

    // Symmetrize so both user and movie factors receive updates.
    BlockPartition g(data.graph.symmetrized(), /*block_size=*/128);

    EngineOptions opt;
    opt.blockSize = 128;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-6;
    opt.maxEpochs = static_cast<double>(flags.getInt("epochs"));
    opt.traceInterval = 5.0;

    CfProgram<H> program(/*learning_rate=*/0.2, /*regularization=*/0.02);
    SerialEngine<CfProgram<H>> engine(g, program, opt);
    std::vector<FeatureVec<H>> factors;
    engine.run(factors,
               [&g](double epochs, const std::vector<FeatureVec<H>> &x) {
                   std::printf("  epoch %5.1f  RMSE %.4f\n", epochs,
                               cfRmse<H>(g, x));
               });

    // Recommend: highest predicted rating among movies user 0 has not
    // rated yet.
    const VertexId user = data.userVertex(0);
    std::vector<char> seen(movies, 0);
    ScatterScratch scratch;
    for (VertexId movie : g.outEdges(user, scratch).dst)
        seen[movie - users] = 1;

    std::vector<std::pair<double, VertexId>> scored;
    for (VertexId m = 0; m < movies; m++) {
        if (seen[m])
            continue;
        const auto &xu = factors[user];
        const auto &xm = factors[data.itemVertex(m)];
        double pred = 0.0;
        for (std::uint32_t k = 0; k < H; k++)
            pred += static_cast<double>(xu[k]) * xm[k];
        scored.emplace_back(pred, m);
    }
    std::partial_sort(scored.begin(),
                      scored.begin() + std::min<std::size_t>(
                                           5, scored.size()),
                      scored.end(), std::greater<>());
    std::printf("top recommendations for user 0:\n");
    for (std::size_t i = 0; i < std::min<std::size_t>(5, scored.size());
         i++) {
        std::printf("  movie %4u  predicted rating %.2f\n",
                    scored[i].second, scored[i].first);
    }
    return 0;
}
