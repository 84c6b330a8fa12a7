/**
 * @file
 * Ablations of GraphABCD's individual design choices (the trade-offs
 * Sec. III-C and IV-A argue for), run on the simulated HARP platform:
 *
 *  1. block size vs total execution time — trade-off 1: small blocks
 *     converge faster but pay coordination/invocation overhead, large
 *     blocks stream better; the paper picks a middle block size;
 *  2. dispatch-window (staleness) sweep — asynchronous BCD's bounded
 *     delay: more in-flight blocks improve overlap until staleness
 *     inflates the epoch count;
 *  3. GATHER-APPLY placement — offloading GATHER-APPLY moves |E|
 *     sequential reads to the accelerator and leaves |V| writes, vs a
 *     SCATTER offload that would move 2|E| (Sec. IV-A2's traffic
 *     argument, evaluated from the real partition);
 *  4. state-based vs operation-based updates (Sec. IV-A3): epochs to
 *     converge under serial execution — the async-correctness argument
 *     is demonstrated in tests/test_delta_lp.cc;
 *  6. vertex updates to tolerance — exact sweep vs naive delta vs the
 *     accumulative engine (Maiter-style), the work-efficiency argument
 *     for delta propagation + Gauss-Southwell ordering.  Rows are also
 *     dumped to --json (default BENCH_accum.json) so the trajectory is
 *     reviewable per PR.
 */

#include "bench_common.hh"

#include <sstream>

#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/delta_state.hh"
#include "core/engine.hh"

namespace graphabcd {
namespace {

using namespace bench;

/** One row of ablation 6, flattened for the JSON dump. */
struct UpdatesRow
{
    std::string algo;      //!< "pr" or "sssp"
    std::string variant;   //!< "exact-sweep", "naive-delta", "accum"
    std::uint64_t updates = 0;
    double epochs = 0.0;
    double seconds = 0.0;
    bool converged = false;
};

void
writeJson(const std::vector<UpdatesRow> &rows, const std::string &path,
          const std::string &graph, double scale, double tol)
{
    std::ostringstream fields;
    fields << "  \"graph\": \"" << graph << "\",\n"
           << "  \"scale\": " << scale << ",\n"
           << "  \"tolerance\": " << tol << ",\n";
    writeBenchJson(path, "accum_updates_to_tolerance", fields.str(),
                   rows.size(), [&rows](std::ostream &os, std::size_t i) {
                       const UpdatesRow &r = rows[i];
                       os << "\"algo\": \"" << r.algo
                          << "\", \"variant\": \"" << r.variant
                          << "\", \"vertex_updates\": " << r.updates
                          << ", \"epochs\": " << r.epochs
                          << ", \"seconds\": " << r.seconds
                          << ", \"converged\": " << (r.converged ? 1 : 0);
                   });
}

int
benchMain(int argc, char **argv)
{
    Flags flags;
    declareCommonFlags(flags);
    flags.declare("graph", "PS", "dataset key");
    flags.declare("json", "BENCH_accum.json",
                  "machine-readable dump of ablation 6");
    if (!flags.parse(argc, argv))
        return 0;

    Dataset ds = loadDataset(flags.get("graph"), flags);

    // ------------------------------------------- 1. block size sweep
    {
        Table t({"block size", "blocks", "epochs", "sim time (s)",
                 "MTES"});
        for (VertexId bs : {64u, 256u, 1024u, 4096u, 16384u}) {
            BlockPartition g(ds.graph, bs);
            EngineOptions opt;
            opt.blockSize = bs;
            RunResult r = abcdPagerank(g, opt, HarpConfig{});
            t.row()
                .add(static_cast<std::uint64_t>(bs))
                .add(static_cast<std::uint64_t>(g.numBlocks()))
                .add(r.iterations, 4)
                .add(r.seconds, 4)
                .add(r.mtes, 4);
        }
        std::cout << "-- ablation 1: block size (PR, "
                  << ds.info.key << ")\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    // --------------------------------- 2. staleness (queue depth) sweep
    {
        Table t({"accel queue depth", "epochs", "sim time (s)",
                 "PE util"});
        BlockPartition g(ds.graph, 512);
        for (std::uint32_t depth : {1u, 4u, 16u, 64u, 256u}) {
            EngineOptions opt;
            opt.blockSize = 512;
            HarpConfig cfg;
            cfg.accelQueueDepth = depth;
            RunResult r = abcdPagerank(g, opt, cfg);
            t.row()
                .add(static_cast<std::uint64_t>(depth))
                .add(r.iterations, 4)
                .add(r.seconds, 4)
                .add(r.sim.peUtilization, 3);
        }
        std::cout << "-- ablation 2: staleness window (PR, "
                  << ds.info.key << ")\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    // ----------------------------- 3. GATHER-APPLY placement traffic
    {
        BlockPartition g(ds.graph, 512);
        const double e = static_cast<double>(g.numEdges());
        const double v = static_cast<double>(g.numVertices());
        const double edge_rec = 16.0, value = 8.0;
        Table t({"offload", "accel traffic (model)", "bytes"});
        t.row()
            .add("GATHER-APPLY only (GraphABCD)")
            .add("|E| reads + |V| writes")
            .add(formatBytes(e * edge_rec + v * value));
        t.row()
            .add("GATHER-APPLY + SCATTER")
            .add("|E| reads + |E| writes")
            .add(formatBytes(e * edge_rec + e * value));
        std::cout << "-- ablation 3: per-epoch accelerator traffic\n";
        t.print(std::cout);
        std::cout << '\n';
    }

    // ------------------------- 4. state-based vs operation-based (PR)
    {
        BlockPartition g(ds.graph, 512);
        EngineOptions opt;
        opt.blockSize = 512;
        opt.tolerance = prTolerance(g.numVertices());
        SerialEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                             opt);
        std::vector<double> x;
        EngineReport state_based = engine.run(x);

        std::vector<double> y;
        double delta_epochs = runDeltaSerial(
            g, PageRankDeltaProgram(0.85), y,
            opt.tolerance * 0.05, 500.0);

        Table t({"update information", "epochs",
                 "async-safe without sync?"});
        t.row()
            .add("state-based (GraphABCD)")
            .add(state_based.epochs, 4)
            .add("yes — overwrites are idempotent");
        t.row()
            .add("operation-based (PR-Delta)")
            .add(delta_epochs, 4)
            .add("no — consume/accumulate races (see tests)");
        std::cout << "-- ablation 4: update information\n";
        t.print(std::cout);
    }

    // ------------------- 5. fixed vs edge-balanced block boundaries
    {
        BlockPartition fixed(ds.graph, 512);
        const EdgeId target = fixed.numBlocks()
            ? ds.graph.numEdges() / fixed.numBlocks()
            : 4096;
        BlockPartition balanced(ds.graph, target,
                                BlockPartition::EdgeBalanced{});

        auto stats = [](const BlockPartition &g) {
            EdgeId max_edges = 0;
            for (BlockId b = 0; b < g.numBlocks(); b++)
                max_edges = std::max(max_edges, g.blockEdgeCount(b));
            return max_edges;
        };
        auto run = [&](const BlockPartition &g) {
            EngineOptions opt;
            opt.blockSize = g.blockSize();
            return abcdPagerank(g, opt, HarpConfig{});
        };
        RunResult rf = run(fixed);
        RunResult rb = run(balanced);

        Table t({"partition", "blocks", "max block edges",
                 "sim time (s)", "PE util"});
        t.row()
            .add("fixed 512 vertices")
            .add(static_cast<std::uint64_t>(fixed.numBlocks()))
            .add(static_cast<std::uint64_t>(stats(fixed)))
            .add(rf.seconds, 4)
            .add(rf.sim.peUtilization, 3);
        t.row()
            .add("edge-balanced")
            .add(static_cast<std::uint64_t>(balanced.numBlocks()))
            .add(static_cast<std::uint64_t>(stats(balanced)))
            .add(rb.seconds, 4)
            .add(rb.sim.peUtilization, 3);
        std::cout << "\n-- ablation 5: block load balance\n";
        t.print(std::cout);
    }

    // ---------------- 6. vertex updates to tolerance (work efficiency)
    {
        const double tol = 1e-9;
        BlockPartition g(ds.graph, 512);
        const double n = std::max<double>(g.numVertices(), 1.0);
        std::vector<UpdatesRow> rows;

        auto addRow = [&rows](const char *algo, const char *variant,
                              std::uint64_t updates, double epochs,
                              double seconds, bool converged) {
            rows.push_back(UpdatesRow{algo, variant, updates, epochs,
                                      seconds, converged});
        };

        {   // Exact sweep: synchronous Jacobi rounds (the canonical
            // power iteration — what pagerankReference runs), every
            // vertex recomputed by a full GATHER each round.  This is
            // the baseline Maiter's updates-to-tolerance comparison is
            // defined against.
            EngineOptions opt;
            opt.blockSize = 512;
            opt.tolerance = tol;
            opt.mode = ExecMode::Bsp;
            Timer timer;
            SerialEngine<PageRankProgram> engine(
                g, PageRankProgram(0.85), opt);
            std::vector<double> x;
            EngineReport r = engine.run(x);
            addRow("pr", "exact-sweep", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }
        {   // The repo's own strongest exact engine: Gauss-Seidel block
            // sweeps with the quiescence-driven active list.  Kept as a
            // second comparator so the accum row is judged against both
            // the canonical and the optimized sweep.
            EngineOptions opt;
            opt.blockSize = 512;
            opt.tolerance = tol;
            Timer timer;
            SerialEngine<PageRankProgram> engine(
                g, PageRankProgram(0.85), opt);
            std::vector<double> x;
            EngineReport r = engine.run(x);
            addRow("pr", "serial-gs", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }
        {   // Head of the sweep (tol 1e-5): subtracting a -head row
            // from its full-tolerance row isolates the convergence
            // tail, where Maiter predicts the accumulative win.
            EngineOptions opt;
            opt.blockSize = 512;
            opt.tolerance = 1e-5;
            opt.mode = ExecMode::Bsp;
            Timer timer;
            SerialEngine<PageRankProgram> engine(
                g, PageRankProgram(0.85), opt);
            std::vector<double> x;
            EngineReport r = engine.run(x);
            addRow("pr", "exact-sweep-head", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }
        {   // Naive operation-based delta (correct serially only).
            std::vector<double> y;
            Timer timer;
            double epochs = runDeltaSerial(
                g, PageRankDeltaProgram(0.85), y, tol, 2000.0);
            addRow("pr", "naive-delta",
                   static_cast<std::uint64_t>(epochs * n), epochs,
                   timer.seconds(), epochs < 2000.0);
        }
        // Accumulative engine rows.  Each variant runs at its own
        // natural operating point (the sweeps above are block-size
        // independent, so this is apples-to-apples on the metric):
        //  - accum: Priority at one vertex per block IS the exact
        //    Gauss-Southwell rule — argmax |pending| — plus the 25%
        //    refresh-throttle hysteresis, which lets small pendings
        //    coalesce in the accumulator instead of being applied
        //    eagerly.  The headline row the acceptance bar reads.
        //  - accum-cyclic: ordering-free control — what conservation
        //    alone buys before any Gauss-Southwell bias.
        const auto runAccumPr = [&](const char *name, Schedule sch,
                                    VertexId bs, double atol) {
            BlockPartition ga(ds.graph, bs);
            EngineOptions opt;
            opt.blockSize = bs;
            opt.tolerance = atol;
            opt.numThreads = 1;
            opt.schedule = sch;
            Timer timer;
            AccumEngine<PageRankProgram> engine(
                ga, PageRankProgram(0.85), opt);
            std::vector<double> x;
            EngineReport r = engine.run(x);
            addRow("pr", name, r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        };
        runAccumPr("accum", Schedule::Priority, 1, tol);
        runAccumPr("accum-head", Schedule::Priority, 1, 1e-5);
        runAccumPr("accum-cyclic", Schedule::Cyclic, 8, tol);
        const VertexId src = hubVertex(g);
        {   // SSSP: exact sweep (synchronous Bellman-Ford rounds) vs
            // accumulative (the naive delta machinery is
            // PageRank-specific).
            EngineOptions opt;
            opt.blockSize = 512;
            opt.tolerance = tol;
            opt.mode = ExecMode::Bsp;
            Timer timer;
            SerialEngine<SsspProgram> engine(g, SsspProgram(src), opt);
            std::vector<double> d;
            EngineReport r = engine.run(d);
            addRow("sssp", "exact-sweep", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }
        {
            EngineOptions opt;
            opt.blockSize = 512;
            opt.tolerance = tol;
            Timer timer;
            SerialEngine<SsspProgram> engine(g, SsspProgram(src), opt);
            std::vector<double> d;
            EngineReport r = engine.run(d);
            addRow("sssp", "serial-gs", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }
        {
            BlockPartition gfine(ds.graph, 8);
            EngineOptions opt;
            opt.blockSize = 8;
            opt.tolerance = tol;
            opt.numThreads = 1;
            opt.schedule = Schedule::Priority;
            Timer timer;
            AccumEngine<SsspProgram> engine(
                gfine, SsspProgram(src), opt);
            std::vector<double> d;
            EngineReport r = engine.run(d);
            addRow("sssp", "accum", r.vertexUpdates, r.epochs,
                   timer.seconds(), r.converged);
        }

        Table t({"algo", "variant", "vertex updates", "epochs",
                 "wall (s)", "converged"});
        for (const UpdatesRow &r : rows) {
            t.row()
                .add(r.algo)
                .add(r.variant)
                .add(r.updates)
                .add(r.epochs, 4)
                .add(r.seconds, 4)
                .add(r.converged ? "yes" : "no");
        }
        std::cout << "\n-- ablation 6: vertex updates to tolerance "
                  << "(tol 1e-9, " << ds.info.key << ")\n";
        t.print(std::cout);

        writeJson(rows, flags.get("json"), ds.info.key,
                  flags.getDouble("scale"), tol);
    }

    std::fprintf(stderr,
                 "info: shapes: U-curve over block size; epochs grow "
                 "with queue depth while time falls then flattens; "
                 "edge-balanced blocks cut the straggler tail; the "
                 "accumulative engine reaches tolerance in a fraction "
                 "of the exact sweep's vertex updates.\n");
    return 0;
}

} // namespace
} // namespace graphabcd

int
main(int argc, char **argv)
{
    return graphabcd::benchMain(argc, argv);
}
