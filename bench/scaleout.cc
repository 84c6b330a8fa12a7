/**
 * @file
 * Scale-out study (the paper's motivating claim, Sec. I): because
 * GraphABCD is barrierless and lock-free, the same computation can be
 * distributed over several accelerators with no extra coordination
 * logic beyond the task queues.
 *
 * One grid: the simulated HARP system running PageRank over --accels
 * device counts on one graph and one block partitioning, every device
 * fed by the one shared block scheduler.  Speedup is in simulated
 * seconds against the first device count.
 *
 * Every row is also written to BENCH_scaleout.json, with the host's
 * core count and build type, so later changes can be compared against
 * the committed numbers.
 */

#include <vector>

#include "bench_common.hh"

namespace graphabcd {
namespace {

using namespace bench;

/** One row of the grid, flattened for the JSON dump. */
struct GridRow
{
    std::string kind;           //!< "sim"
    std::uint32_t shards = 1;   //!< accelerators
    double seconds = 0.0;
    double speedup = 1.0;
    double epochs = 0.0;
    double mtes = 0.0;          //!< millions of traversed edges / s
    bool converged = false;
};

std::vector<std::uint32_t>
parseList(const std::string &spec)
{
    std::vector<std::uint32_t> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        out.push_back(static_cast<std::uint32_t>(
            std::max(1L, std::atol(spec.substr(pos, comma - pos).c_str()))));
        pos = comma + 1;
    }
    if (out.empty())
        out.push_back(1);
    return out;
}

void
writeJson(const std::vector<GridRow> &rows, const std::string &path)
{
    writeBenchJson(path, "scaleout", "", rows.size(),
                   [&rows](std::ostream &os, std::size_t i) {
                       const GridRow &r = rows[i];
                       os << "\"kind\": \"" << r.kind
                          << "\", \"shards\": " << r.shards
                          << ", \"seconds\": " << r.seconds
                          << ", \"speedup\": " << r.speedup
                          << ", \"epochs\": " << r.epochs
                          << ", \"mtes\": " << r.mtes
                          << ", \"converged\": " << (r.converged ? 1 : 0);
                   });
}

int
benchMain(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    flags.declare("graph", "LJ", "dataset key");
    flags.declareInt("block-size", 512, "block size");
    flags.declare("accels", "1,2,4,8",
                  "simulated accelerator counts to sweep (comma list)");
    flags.declare("json", "BENCH_scaleout.json",
                  "machine-readable dump of every row");
    if (!flags.parse(argc, argv))
        return 0;

    Dataset ds = loadDataset(flags.get("graph"), flags);
    const auto block_size =
        static_cast<VertexId>(flags.getInt("block-size"));
    BlockPartition g(ds.graph, block_size);
    std::vector<GridRow> rows;

    Table sim_table({"accelerators", "total PEs", "time (s)", "speedup",
                     "epochs", "MTES", "link util (avg)"});
    double sim_base = 0.0;
    for (std::uint32_t accels : parseList(flags.get("accels"))) {
        EngineOptions opt;
        opt.blockSize = block_size;
        HarpConfig cfg;
        cfg.numAccelerators = accels;
        RunResult r = abcdPagerank(g, opt, cfg);
        if (sim_base == 0.0)
            sim_base = r.seconds;
        rows.push_back(GridRow{"sim", accels, r.seconds,
                               sim_base / r.seconds, r.iterations,
                               r.mtes, r.converged});
        sim_table.row()
            .add(static_cast<std::uint64_t>(accels))
            .add(static_cast<std::uint64_t>(accels * cfg.numPes))
            .add(r.seconds, 4)
            .add(sim_base / r.seconds, 3)
            .add(r.iterations, 4)
            .add(r.mtes, 4)
            .add(r.sim.busUtilization, 3);
    }
    std::printf("simulated accelerators (HARP):\n");
    emitTable(sim_table, flags);
    writeJson(rows, flags.get("json"));
    std::fprintf(stderr,
                 "info: expected shape: near-linear speedup while the "
                 "scheduler/scatter side keeps up; epochs inflate "
                 "mildly as the staleness window widens.\n");
    return 0;
}

} // namespace
} // namespace graphabcd

int
main(int argc, char **argv)
{
    return graphabcd::benchMain(argc, argv);
}
