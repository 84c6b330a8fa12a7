/**
 * @file
 * Web-scale ranking scenario: PageRank over a social/web graph stand-in
 * on the *simulated* HARPv2 CPU-FPGA platform, comparing the paper's
 * four configurations (cyclic/priority x hybrid off/on) and printing
 * the projected accelerator-side statistics a deployment would care
 * about: time, throughput, PE/bus utilization, memory traffic.
 *
 * Usage: ./build/examples/web_ranking [--graph WT|PS|LJ|TW] [--scale S]
 */

#include <cstdio>
#include <iostream>

#include "algorithms/pagerank.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "harp/system.hh"
#include "support/flags.hh"
#include "support/table.hh"
#include "support/units.hh"

using namespace graphabcd;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("graph", "WT", "dataset key (WT, PS, LJ, TW)");
    flags.declareDouble("scale", 1.0, "dataset scale factor");
    flags.declareInt("block-size", 512, "vertices per block");
    if (!flags.parse(argc, argv))
        return 0;

    Dataset ds = makeDataset(flags.get("graph"),
                             flags.getDouble("scale"));
    std::printf("ranking %s: %s pages, %s links\n",
                ds.info.paperName.c_str(),
                formatCount(ds.numVertices()).c_str(),
                formatCount(ds.numEdges()).c_str());

    const auto block_size =
        static_cast<VertexId>(flags.getInt("block-size"));
    BlockPartition g(ds.graph, block_size);

    Table table({"schedule", "hybrid", "time", "MTES", "PE util",
                 "bus util", "bus traffic", "epochs"});

    std::vector<double> best_ranks;
    double best_time = 0.0;
    for (Schedule sched : {Schedule::Cyclic, Schedule::Priority}) {
        for (bool hybrid : {false, true}) {
            EngineOptions opt;
            opt.blockSize = block_size;
            opt.schedule = sched;
            opt.tolerance = 0.01 / ds.numVertices();
            HarpConfig cfg;
            cfg.hybrid = hybrid;
            HarpSystem<PageRankProgram> sys(g, PageRankProgram(0.85),
                                            opt, cfg);
            std::vector<double> ranks;
            SimReport r = sys.run(ranks);
            table.row()
                .add(to_string(sched))
                .add(hybrid ? "on" : "off")
                .add(formatSeconds(r.seconds))
                .add(r.mtes, 4)
                .add(r.peUtilization, 3)
                .add(r.busUtilization, 3)
                .add(formatBytes(static_cast<double>(
                    r.busReadBytes + r.busWriteBytes)))
                .add(r.engine.epochs, 4);
            if (best_ranks.empty() || r.seconds < best_time) {
                best_time = r.seconds;
                best_ranks = ranks;
            }
        }
    }
    table.print(std::cout);

    VertexId top = 0;
    for (VertexId v = 1; v < ds.numVertices(); v++) {
        if (best_ranks[v] > best_ranks[top])
            top = v;
    }
    std::printf("highest-ranked page: vertex %u (rank %.3g, %u "
                "in-links)\n",
                top, best_ranks[top], g.inDegree(top));
    return 0;
}
