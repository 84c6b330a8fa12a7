/**
 * @file
 * Size and rate formatting plus common unit constants.
 */

#ifndef GRAPHABCD_SUPPORT_UNITS_HH
#define GRAPHABCD_SUPPORT_UNITS_HH

#include <cstdint>
#include <string>

namespace graphabcd {

constexpr std::uint64_t KiB = 1024ULL;
constexpr std::uint64_t MiB = 1024ULL * KiB;
constexpr std::uint64_t GiB = 1024ULL * MiB;

constexpr double KB = 1e3;
constexpr double MB = 1e6;
constexpr double GB = 1e9;

/** Format a byte count with a binary suffix, e.g. "2.69 MiB". */
std::string formatBytes(double bytes);

/** Format a plain count with thousands separators, e.g. "1,470,000,000". */
std::string formatCount(std::uint64_t value);

/** Format seconds adaptively (ns/us/ms/s), e.g. "1.577 s", "34 ms". */
std::string formatSeconds(double seconds);

} // namespace graphabcd

#endif // GRAPHABCD_SUPPORT_UNITS_HH
