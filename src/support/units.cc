#include "support/units.hh"

#include <array>
#include <cstdio>

namespace graphabcd {

namespace {

std::string
formatWith(double value, const char *suffix)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g %s", value, suffix);
    return buf;
}

} // namespace

std::string
formatBytes(double bytes)
{
    static constexpr std::array<const char *, 5> suffixes = {
        "B", "KiB", "MiB", "GiB", "TiB"};
    std::size_t idx = 0;
    while (bytes >= 1024.0 && idx + 1 < suffixes.size()) {
        bytes /= 1024.0;
        idx++;
    }
    return formatWith(bytes, suffixes[idx]);
}

std::string
formatCount(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    std::size_t lead = digits.size() % 3;
    if (lead == 0)
        lead = 3;
    for (std::size_t i = 0; i < digits.size(); i++) {
        if (i != 0 && (i - lead) % 3 == 0 && i >= lead)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string
formatSeconds(double seconds)
{
    char buf[64];
    if (seconds < 1e-6)
        std::snprintf(buf, sizeof(buf), "%.3g ns", seconds * 1e9);
    else if (seconds < 1e-3)
        std::snprintf(buf, sizeof(buf), "%.3g us", seconds * 1e6);
    else if (seconds < 1.0)
        std::snprintf(buf, sizeof(buf), "%.3g ms", seconds * 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.4g s", seconds);
    return buf;
}

} // namespace graphabcd
