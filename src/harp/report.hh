/**
 * @file
 * Result record of a simulated GraphABCD run on the HARP platform.
 */

#ifndef GRAPHABCD_HARP_REPORT_HH
#define GRAPHABCD_HARP_REPORT_HH

#include <cstdint>

#include "core/run_accounting.hh"

namespace graphabcd {

/**
 * What one HarpSystem::run() adds to the engine report: simulated time
 * and throughput, utilization, memory traffic and where tasks ran.
 */
struct SimReport
{
    /** Work counters and outcome, as every engine reports them;
     *  engine.seconds is the host wall clock spent simulating. */
    EngineReport engine;

    // ----------------------------------------------------------- time
    double seconds = 0.0;        //!< simulated execution time

    // ----------------------------------------------------- throughput
    double mtes = 0.0;           //!< million traversed edges / second

    // ----------------------------------------------------- utilization
    double peUtilization = 0.0;  //!< mean busy fraction of the FPGA PEs
    double busUtilization = 0.0; //!< CPU-FPGA link busy fraction
    double cpuUtilization = 0.0; //!< mean busy fraction of CPU threads

    // ---------------------------------------------------- memory traffic
    std::uint64_t busReadBytes = 0;   //!< FPGA-side sequential reads
    std::uint64_t busWriteBytes = 0;  //!< FPGA-side sequential writes
    std::uint64_t cpuRandomBytes = 0; //!< CPU-side random scatter bytes

    // --------------------------------------------------------- hybrid
    std::uint64_t fpgaTasks = 0;      //!< blocks processed on PEs
    std::uint64_t cpuGatherTasks = 0; //!< blocks processed on the CPU
};

} // namespace graphabcd

#endif // GRAPHABCD_HARP_REPORT_HH
