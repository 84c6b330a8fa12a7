/**
 * @file
 * Serialised bandwidth resource — models the CPU-FPGA link (and, with a
 * different rate, a CPU thread's DRAM share).  FIFO arbitration: each
 * transfer occupies the link for bytes/bandwidth seconds starting no
 * earlier than the link is free, which is how the paper's shared
 * PCIe/QPI fabric behaves under the customized DMA unit.
 */

#ifndef GRAPHABCD_HARP_BUS_HH
#define GRAPHABCD_HARP_BUS_HH

#include <cstdint>

#include "support/logging.hh"

namespace graphabcd {

/** Result of one granted transfer. */
struct BusGrant
{
    double start = 0.0;   //!< when the transfer begins
    double end = 0.0;     //!< when the last byte arrives
};

/** FIFO-arbitrated bandwidth resource with busy-time accounting. */
class Bus
{
  public:
    /** @param bytes_per_second link bandwidth; must be > 0. */
    explicit Bus(double bytes_per_second)
        : bandwidth(bytes_per_second)
    {
        GRAPHABCD_ASSERT(bandwidth > 0.0, "bus needs positive bandwidth");
    }

    /**
     * Request a transfer of `bytes` at time `now`.
     * @return grant window; the link is busy for the whole window.
     */
    BusGrant
    transfer(double now, std::uint64_t bytes)
    {
        BusGrant grant;
        grant.start = now > freeAt ? now : freeAt;
        grant.end = grant.start + static_cast<double>(bytes) / bandwidth;
        freeAt = grant.end;
        busy += grant.end - grant.start;
        total_bytes += bytes;
        return grant;
    }

    /** @return cumulative busy seconds. */
    double busySeconds() const { return busy; }

    /** @return cumulative transferred bytes. */
    std::uint64_t transferredBytes() const { return total_bytes; }

    /** @return busy fraction of the window [0, horizon]. */
    double
    utilization(double horizon) const
    {
        return horizon > 0.0 ? busy / horizon : 0.0;
    }

  private:
    double bandwidth;
    double freeAt = 0.0;
    double busy = 0.0;
    std::uint64_t total_bytes = 0;
};

} // namespace graphabcd

#endif // GRAPHABCD_HARP_BUS_HH
