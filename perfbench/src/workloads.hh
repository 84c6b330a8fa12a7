/**
 * @file
 * The benchmark's workloads: input generation, reference answers,
 * set-up through the public serve API, closed-loop clients, and the
 * end-to-end and per-layer metrics.  README.md describes each workload
 * and why it was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host.hh"

namespace perfbench {

struct RunConfig
{
    std::string workload;      //!< lj-async | lj-accum-packed | serve-mix
    std::uint64_t seed = 1;
    double seconds = 10.0;     //!< length of one measured phase
    bool trace = false;        //!< per-layer run instead of end-to-end
    bool smoke = false;        //!< tiny graphs, for the benchmark's tests
    std::string workDir;       //!< generated inputs go here
    std::string tracePath;     //!< Chrome trace output (trace runs)
    HostInfo host;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** @return whether `name` is a workload this benchmark defines. */
bool knownWorkload(const std::string &name);

/** Run one workload; prints a human-readable report to stdout. */
RunResult runWorkload(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
