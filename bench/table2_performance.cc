/**
 * @file
 * Reproduces paper Table II: execution time and throughput (MTES) of
 * GraphABCD (best of the four priority/hybrid configurations, simulated
 * HARP platform), GraphMat (functional run + CPU cost model) and the
 * Graphicionado projection, for PR and SSSP on WT/PS/LJ/TW and CF on
 * SAC/MOL/NF.
 *
 * Expected shape: GraphABCD beats GraphMat ~2.1-2.5x on PR and
 * ~2.5-3.3x on CF, roughly ties on SSSP (0.76-1.14x), and beats the
 * projected ASIC on all three; GraphMat's raw MTES may exceed
 * GraphABCD's (58 vs 12.8 GB/s of bandwidth).
 */

#include "bench_common.hh"

namespace graphabcd {
namespace {

using namespace bench;

/** Paper Table II values for annotation (seconds). */
struct PaperRow
{
    const char *app;
    const char *graph;
    double abcd;
    double graphmat;
    double asic;   //!< 0 when the paper has no ASIC number
};

constexpr PaperRow paperRows[] = {
    {"PR", "WT", 0.123, 0.255, 0.0},
    {"PR", "PS", 0.619, 1.420, 0.0},
    {"PR", "LJ", 1.577, 3.997, 9.993},
    {"PR", "TW", 42.810, 108.015, 93.116},
    {"SSSP", "WT", 0.034, 0.026, 0.0},
    {"SSSP", "PS", 0.280, 0.262, 0.0},
    {"SSSP", "LJ", 0.652, 0.717, 1.195},
    {"SSSP", "TW", 8.367, 9.556, 23.890},
    {"CF", "SAC", 0.206, 0.556, 0.0},
    {"CF", "MOL", 0.853, 2.092, 0.0},
    {"CF", "NF", 2.090, 6.832, 9.760},
};

const PaperRow &
paperRow(const std::string &app, const std::string &graph)
{
    for (const PaperRow &row : paperRows) {
        if (app == row.app && graph == row.graph)
            return row;
    }
    fatal("no paper row for ", app, "/", graph);
}

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

    Table table({"app", "graph", "ABCD time (s)", "GraphMat time (s)",
                 "ASIC time (s)", "ABCD MTES", "GraphMat MTES",
                 "speedup vs GraphMat", "paper speedup"});

    auto emit = [&](const char *app, const std::string &key,
                    const RunResult &abcd, const RunResult &gm,
                    double asic_seconds) {
        const PaperRow &paper = paperRow(app, key);
        table.row()
            .add(app)
            .add(key)
            .add(abcd.seconds, 4)
            .add(gm.seconds, 4)
            .add(asic_seconds, 4)
            .add(abcd.mtes, 4)
            .add(gm.mtes, 4)
            .add(gm.seconds / abcd.seconds, 3)
            .add(paper.graphmat / paper.abcd, 3);
    };

    // ------------------------------------------------------ PR / SSSP
    for (const std::string key : {"WT", "PS", "LJ", "TW"}) {
        Dataset ds = loadDataset(key, flags);
        BlockPartition g(ds.graph, block_size);
        EngineOptions base;
        base.blockSize = block_size;

        RunResult abcd_pr = bestOfFourConfigs(
            base, HarpConfig{}, [&](EngineOptions o, HarpConfig c) {
                return abcdPagerank(g, o, c);
            });
        graphmat::GraphMatReport gm_raw;
        RunResult gm_pr = graphmatPagerank(g, &gm_raw);
        auto asic_pr = graphicionadoTime(gm_raw, ds.numVertices(), 8);
        emit("PR", key, abcd_pr, gm_pr, asic_pr.seconds);

        RunResult abcd_sp = bestOfFourConfigs(
            base, HarpConfig{}, [&](EngineOptions o, HarpConfig c) {
                return abcdSssp(g, o, c);
            });
        graphmat::GraphMatReport gm_sp_raw;
        RunResult gm_sp = graphmatSssp(g, &gm_sp_raw);
        auto asic_sp =
            graphicionadoTime(gm_sp_raw, ds.numVertices(), 8);
        emit("SSSP", key, abcd_sp, gm_sp, asic_sp.seconds);
    }

    // -------------------------------------------------------------- CF
    for (const std::string key : {"SAC", "MOL", "NF"}) {
        Dataset ds = loadDataset(key, flags);
        const auto cf_bs =
            static_cast<VertexId>(flags.getInt("cf-block-size"));
        BlockPartition g(ds.graph.symmetrized(), cf_bs);
        EngineOptions base;
        base.blockSize = cf_bs;

        double target_rmse = 0.0;
        graphmat::GraphMatReport gm_raw;
        RunResult gm_cf = graphmatCf(g, &target_rmse, &gm_raw);
        RunResult abcd_cf = bestOfFourConfigs(
            base, HarpConfig{},
            [&](EngineOptions o, HarpConfig c) {
                return abcdCf(g, o, c, target_rmse,
                              /*max_epochs=*/120.0);
            });
        auto asic_cf =
            graphicionadoTime(gm_raw, g.numVertices(), 4 * kCfDim);
        emit("CF", key, abcd_cf, gm_cf, asic_cf.seconds);
    }

    emitTable(table, flags);
    std::fprintf(stderr,
                 "info: absolute times are for the scaled stand-ins; "
                 "compare the speedup columns against the paper's.\n");
    return 0;
}

} // namespace
} // namespace graphabcd

int
main(int argc, char **argv)
{
    return graphabcd::benchMain(argc, argv);
}
