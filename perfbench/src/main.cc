/**
 * @file
 * abcd_perfbench — end-to-end and per-layer benchmark of the serve
 * path (README.md).  Normally launched through perfbench/run.py:
 *
 *   abcd_perfbench --workload lj-async --seed 1 --seconds 20 --trace 0
 *                  --work-dir DIR [--trace-out FILE] [--commit ID]
 *                  [--smoke]
 *
 * The human-readable report goes to stdout; the last stdout line is one
 * JSON object {correct, attempted, failed, metrics}.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.hh"
#include "workloads.hh"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: abcd_perfbench --workload lj-async|lj-accum-packed|"
                 "serve-mix --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE] [--commit ID] [--smoke]\n");
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, unsigned long long *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    std::string commit = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            cfg.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        unsigned long long n = 0;
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed" && parseUnsigned(val, &n)) {
            cfg.seed = n;
            have_seed = true;
        } else if (arg == "--seconds" && parseUnsigned(val, &n) && n > 0 &&
                   n <= 3600) {
            cfg.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            cfg.trace = val == "1";
            have_trace = true;
        } else if (arg == "--work-dir") {
            cfg.workDir = val;
        } else if (arg == "--trace-out") {
            cfg.tracePath = val;
        } else if (arg == "--commit") {
            commit = val;
        } else {
            usage();
        }
    }
    if (!perfbench::knownWorkload(cfg.workload) || !have_seed ||
        !have_seconds || !have_trace || cfg.workDir.empty())
        usage();

    cfg.host = perfbench::probeHost(commit, 64ULL << 20);
    const perfbench::RunResult r = perfbench::runWorkload(cfg);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); i++) {
        const perfbench::Metric &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    // A wrong answer is reported through "correct", not the exit code.
    return 0;
}
