/**
 * @file
 * Reproduces paper Table III: convergence rate (# of iterations) of
 * GraphABCD with priority and cyclic scheduling versus
 * GraphMat/Graphicionado (one column — they share algorithm design
 * options).  GraphMat reports BSP supersteps; GraphABCD reports
 * |V|-normalised epochs, fractional by design.
 *
 * Expected shape: GraphABCD PR needs ~72-76% fewer iterations than
 * GraphMat; GraphABCD SSSP needs ~1.5-1.8x MORE (GraphMat's
 * active-vertex filtering shrinks its effective block size); priority
 * cuts 11-38% (PR) and 8-12% (SSSP) versus cyclic.
 */

#include "bench_common.hh"

namespace graphabcd {
namespace {

using namespace bench;

int
benchMain(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    flags.declareInt("block-size", 512, "GraphABCD block size");
    flags.declareInt("cf-block-size", 32,
                     "CF block size (proportional to the smaller\n"
                     "                           bipartite vertex counts)");
    if (!flags.parse(argc, argv))
        return 0;

    const auto block_size =
        static_cast<VertexId>(flags.getInt("block-size"));

    Table table({"app", "graph", "GraphMat iters", "ABCD cyclic",
                 "ABCD priority", "cyclic/GraphMat",
                 "priority/cyclic"});

    auto abcd_iters = [&](auto run_fn, const BlockPartition &g,
                          Schedule sched) {
        EngineOptions opt;
        opt.blockSize = g.blockSize();
        opt.schedule = sched;
        return run_fn(g, opt, HarpConfig{}).iterations;
    };

    for (const std::string key : {"WT", "PS", "LJ", "TW"}) {
        Dataset ds = loadDataset(key, flags);
        BlockPartition g(ds.graph, block_size);

        {
            RunResult gm = graphmatPagerank(g);
            auto pr = [](const BlockPartition &gg, EngineOptions o,
                         HarpConfig c) { return abcdPagerank(gg, o, c); };
            double cyc = abcd_iters(pr, g, Schedule::Cyclic);
            double pri = abcd_iters(pr, g, Schedule::Priority);
            table.row()
                .add("PR")
                .add(key)
                .add(gm.iterations, 4)
                .add(cyc, 4)
                .add(pri, 4)
                .add(cyc / gm.iterations, 3)
                .add(pri / cyc, 3);
        }
        {
            RunResult gm = graphmatSssp(g);
            auto sp = [](const BlockPartition &gg, EngineOptions o,
                         HarpConfig c) { return abcdSssp(gg, o, c); };
            double cyc = abcd_iters(sp, g, Schedule::Cyclic);
            double pri = abcd_iters(sp, g, Schedule::Priority);
            table.row()
                .add("SSSP")
                .add(key)
                .add(gm.iterations, 4)
                .add(cyc, 4)
                .add(pri, 4)
                .add(cyc / gm.iterations, 3)
                .add(pri / cyc, 3);
        }
    }

    // CF rows: the paper reports RMSE at a fixed budget rather than
    // iteration counts; reproduce that comparison point.
    for (const std::string key : {"SAC", "MOL", "NF"}) {
        Dataset ds = loadDataset(key, flags);
        const auto cf_bs =
            static_cast<VertexId>(flags.getInt("cf-block-size"));
        BlockPartition g(ds.graph.symmetrized(), cf_bs);

        double gm_rmse = 0.0;
        RunResult gm = graphmatCf(g, &gm_rmse);
        EngineOptions opt;
        opt.blockSize = cf_bs;
        opt.schedule = Schedule::Priority;
        RunResult abcd =
            abcdCf(g, opt, HarpConfig{}, gm_rmse, /*max_epochs=*/120.0);
        table.row()
            .add("CF")
            .add(key)
            .add(gm.iterations, 4)
            .add("-")
            .add(abcd.iterations, 4)
            .add("-")
            .add(abcd.iterations / gm.iterations, 3);
    }

    emitTable(table, flags);
    std::fprintf(stderr,
                 "info: paper shape: PR cyclic/GraphMat ~0.24-0.28; "
                 "SSSP cyclic/GraphMat ~1.5-1.8; priority/cyclic "
                 "~0.62-0.92.\n");
    return 0;
}

} // namespace
} // namespace graphabcd

int
main(int argc, char **argv)
{
    return graphabcd::benchMain(argc, argv);
}
