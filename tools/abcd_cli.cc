/**
 * @file
 * Command-line driver: run any supported algorithm on an edge-list file
 * or a named synthetic dataset, on the engine of your choice, and print
 * a result summary — the utility a downstream user reaches for first.
 *
 * Examples:
 *   abcd_cli --algo pr --dataset LJ --schedule priority
 *   abcd_cli --algo sssp --graph web.el --source 17 --engine async
 *   abcd_cli --algo cc --dataset WT --engine sim --pes 8
 *   abcd_cli --algo pr --dataset PS --engine accum --schedule priority
 *   abcd_cli --algo ppr --dataset WT --engine accum --source 3
 *   abcd_cli --algo pr --graph web.el --dump ranks.txt
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "algorithms/extras.hh"
#include "core/options.hh"
#include "graph/datasets.hh"
#include "graph/io.hh"
#include "graph/stats.hh"
#include "serve/runner.hh"
#include "support/flags.hh"
#include "support/units.hh"

using namespace graphabcd;

namespace {

/** Write per-vertex results (original vertex ids) to `path`. */
void
dumpValues(const std::string &path, const std::vector<double> &values,
           const char *value_name)
{
    std::ofstream ofs(path);
    if (!ofs)
        fatal("cannot open '", path, "'");
    ofs << "# vertex " << value_name << '\n';
    for (std::size_t v = 0; v < values.size(); v++)
        ofs << v << ' ' << values[v] << '\n';
    std::printf("wrote %zu values to %s\n", values.size(), path.c_str());
}

/** A count flag: zero, negative or past 32 bits is a usage error, not a
 *  value wrapped by the cast. */
std::uint32_t
positiveCount(const Flags &flags, const char *name)
{
    const std::int64_t x = flags.getInt(name);
    if (x <= 0 || x > std::numeric_limits<std::uint32_t>::max())
        fatal("rejected: --", name, " must be a positive 32-bit count");
    return static_cast<std::uint32_t>(x);
}

int
run(int argc, char **argv)
{
    Flags flags;
    flags.declare("algo", "pr",
                  "pr | ppr | sssp | bfs | cc | lp | kcore | color");
    flags.declare("graph", "",
                  "edge-list file (.el text, .bin, or packed .abcz)");
    flags.declare("dataset", "", "named stand-in (WT PS LJ TW ...)");
    flags.declareDouble("scale", 1.0, "dataset scale factor");
    flags.declare("engine", "serial",
                  "serial | async | accum | sim");
    flags.declareInt("block-size", 512, "vertices per block");
    flags.declare("layout", "plain",
                  "physical layout: plain | compressed");
    flags.declare("reorder", "none", "vertex order: none | hub");
    flags.declare("schedule", "cyclic",
                  "cyclic | priority | random");
    flags.declareInt("threads", 4,
                     "threads that run one async/accum job, the "
                     "calling thread included");
    flags.declareInt("pes", 16, "sim: FPGA PEs");
    flags.declareBool("hybrid", false, "sim: CPU gather-apply workers");
    flags.declareInt("source", -1,
                     "sssp/bfs/ppr source (-1 = max-degree hub)");
    flags.declareInt("k", 3, "kcore: the k");
    flags.declareDouble("tolerance", 1e-9, "activation threshold");
    flags.declareDouble("max-epochs", 10000, "epoch safety cap");
    flags.declare("dump", "", "write per-vertex results to this file");
    flags.declareBool("stats", false, "print graph statistics and exit");
    flags.declareInt("seed", 42, "dataset generator seed");
    if (!flags.parse(argc, argv))
        return 0;
    const std::uint32_t block_size = positiveCount(flags, "block-size");
    const std::uint32_t threads = positiveCount(flags, "threads");
    const std::uint32_t pes = positiveCount(flags, "pes");
    const double scale = flags.getDouble("scale");
    if (!(scale > 0.0))
        fatal("rejected: --scale must be positive");

    // kcore and color have no request form (--k has no JobRequest
    // field); every other algorithm is a row of the serve table.
    const std::string algo = flags.get("algo");
    const bool cli_only = algo == "kcore" || algo == "color";
    const AlgoInfo *info = findAlgo(algo);
    if (!info && !cli_only)
        fatal("unknown --algo '", algo, "'");

    // Every check that needs only the request runs before the graph
    // is loaded or generated, so a usage error costs no graph build.
    JobRequest req;
    req.algo = algo;
    req.engine = flags.get("engine");
    req.options.blockSize = block_size;
    req.options.tolerance = flags.getDouble("tolerance");
    req.options.maxEpochs = flags.getDouble("max-epochs");
    req.options.numThreads = threads;
    if (auto s = parseSchedule(flags.get("schedule")))
        req.options.schedule = *s;
    else
        fatal("unknown --schedule '", flags.get("schedule"),
              "' (cyclic | priority | random)");
    HarpConfig harp;
    harp.numPes = pes;
    harp.hybrid = flags.getBool("hybrid");

    LayoutOptions lo;
    if (auto l = parseGraphLayout(flags.get("layout")))
        lo.layout = *l;
    else
        fatal("unknown --layout '", flags.get("layout"),
              "' (plain | compressed)");
    if (auto r = parseVertexReorder(flags.get("reorder")))
        lo.reorder = *r;
    else
        fatal("unknown --reorder '", flags.get("reorder"),
              "' (none | hub)");

    // kcore and color are checked by runProgram once the graph is
    // built; the runner checks the source and weights of the others.
    std::string why;
    if (!cli_only && !validate(req, nullptr, &why))
        fatal("rejected: ", why);

    // ---------------------------------------------------------- graph
    EdgeList el;
    if (!flags.get("graph").empty()) {
        el = loadEdgeListFile(flags.get("graph"));
    } else if (!flags.get("dataset").empty()) {
        el = makeDataset(flags.get("dataset"), scale,
                         static_cast<std::uint64_t>(flags.getInt("seed")))
                 .graph;
    } else {
        flags.usage(argv[0]);
        fatal("need --graph FILE or --dataset KEY");
    }

    const bool undirected = cli_only || info->symmetricInput;
    if (undirected)
        el = el.symmetrized();
    std::printf("graph: %u vertices, %llu edges%s\n", el.numVertices(),
                static_cast<unsigned long long>(el.numEdges()),
                undirected ? " (symmetrized)" : "");
    if (flags.getBool("stats")) {
        std::printf("%s\n", computeGraphStats(el).toString().c_str());
        return 0;
    }

    BlockPartition g(el, req.options.blockSize, lo);
    if (lo.layout != GraphLayout::Plain ||
        lo.reorder != VertexReorder::None) {
        std::printf("layout: %s reorder=%s (%.2f topology B/edge)\n",
                    to_string(g.layout()), to_string(g.reorder()),
                    g.gatherBytesPerEdge());
    }

    // --source speaks original vertex ids, as requests do; the runner
    // translates it under a reorder.  Ids past the VertexId range are
    // clamped to one no graph has, so the runner rejects them.
    const std::int64_t source = flags.getInt("source");
    if (source >= 0) {
        req.source = static_cast<VertexId>(std::min<std::int64_t>(
            source, std::numeric_limits<VertexId>::max()));
    } else {
        auto deg = el.outDegrees();
        req.source = static_cast<VertexId>(
            std::max_element(deg.begin(), deg.end()) - deg.begin());
    }

    RunOutcome out;
    const char *value_name = nullptr;
    if (cli_only) {
        const auto k = static_cast<std::uint32_t>(flags.getInt("k"));
        out = algo == "kcore" ? runProgram(g, KCoreProgram(k), req, harp)
                              : runProgram(g, ColoringProgram(), req, harp);
        if (out.ok())
            out.values = g.permutation().valuesToOriginal(out.values);
        value_name = algo == "kcore" ? "in_core" : "packed_color";
    } else {
        out = runAnalyticsJob(g, req, nullptr, harp);
        value_name = info->valueName;
    }
    if (!out.ok())
        fatal("rejected: ", out.error);

    const double seconds = out.sim ? out.sim->seconds : out.report.seconds;
    if (out.sim) {
        std::printf("simulated: %s, %.0f MTES, PE util %.2f, "
                    "bus util %.2f\n",
                    formatSeconds(out.sim->seconds).c_str(), out.sim->mtes,
                    out.sim->peUtilization, out.sim->busUtilization);
    }
    std::printf("%s in %.2f epochs (%s %s)\n",
                out.report.converged ? "converged" : "stopped",
                out.report.epochs, out.sim ? "simulated" : "wall",
                formatSeconds(seconds).c_str());

    if (!flags.get("dump").empty())
        dumpValues(flags.get("dump"), out.values, value_name);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const GraphError &e) {
        std::fprintf(stderr, "abcd_cli: %s\n", e.what());
        return 1;
    }
}
