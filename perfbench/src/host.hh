/**
 * @file
 * Host block and process probes: what machine a run was measured on,
 * its memory-bandwidth ceiling, and the process's CPU time and peak
 * resident set.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo
{
    unsigned nproc = 0;
    std::string buildType;     //!< CMAKE_BUILD_TYPE of this binary
    bool obs = false;          //!< GRAPHABCD_OBS compiled in
    std::string commit;        //!< as passed by the launcher
    std::uint64_t llcBytes = 0;
    double triadGBps = 0.0;    //!< STREAM-style triad, all cores
    std::uint64_t triadBytes = 0; //!< footprint of the three arrays
};

/**
 * Probe the host.  The triad's three arrays together span at least
 * 4x the last-level cache (and at least `min_triad_bytes`), so the
 * figure is DRAM bandwidth, not cache bandwidth.
 */
HostInfo probeHost(const std::string &commit,
                   std::uint64_t min_triad_bytes);

/** Process user+system CPU seconds so far (all threads). */
double processCpuSeconds();

/** Resident-set high-water mark (VmHWM), MiB. */
double peakRssMb();

/** Current resident set (VmRSS), MiB. */
double residentMb();

/** Return free heap to the OS, then reset the high-water mark to the
 *  current RSS (Linux clear_refs). */
bool resetPeakRss();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
