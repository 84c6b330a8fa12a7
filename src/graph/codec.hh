/**
 * @file
 * Varint / delta codec for the compressed graph layouts (ROADMAP item 3,
 * GraphScale-style neighbor-list compression).
 *
 * Encoding is LEB128: seven payload bits per byte, the high bit marks a
 * continuation.  Sorted id lists are stored as a first absolute value
 * followed by non-negative deltas, so typical social-graph neighbor
 * lists cost 1-2 bytes per edge instead of 4.
 *
 * Two decode paths:
 *
 *  - decodeVarint32: unchecked, for trusted in-memory streams built by
 *    this process (the hot gather loops);
 *  - getVarint32: bounds- and canonicality-checked, for
 *    byte streams read from disk.  A truncated stream, an encoding
 *    longer than the maximum, a value overflowing the output type, or
 *    a non-canonical padded encoding all return an error instead of
 *    over-reading — the adversarial-input contract the codec tests pin.
 */

#ifndef GRAPHABCD_GRAPH_CODEC_HH
#define GRAPHABCD_GRAPH_CODEC_HH

#include <cstdint>
#include <span>
#include <vector>

namespace graphabcd {
namespace codec {

/** Longest legal encoding of a 32-bit value (ceil(32 / 7)). */
constexpr std::size_t kMaxVarint32Bytes = 5;

/** Write the LEB128 encoding of `x` at `p`.
 *  @return pointer past the written bytes. */
inline std::uint8_t *
writeVarint32(std::uint8_t *p, std::uint32_t x)
{
    while (x >= 0x80) {
        *p++ = static_cast<std::uint8_t>(x) | 0x80;
        x >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(x);
    return p;
}

/** @return bytes of the LEB128 encoding of `x`. */
inline std::size_t
varint32Bytes(std::uint32_t x)
{
    std::size_t n = 1;
    for (; x >= 0x80; x >>= 7)
        n++;
    return n;
}

/** Append the LEB128 encoding of `x` to `out`. */
inline void
putVarint32(std::vector<std::uint8_t> &out, std::uint32_t x)
{
    std::uint8_t buf[kMaxVarint32Bytes];
    out.insert(out.end(), buf, writeVarint32(buf, x));
}

/**
 * Unchecked decode for trusted in-memory streams.
 * @return pointer past the consumed bytes.
 */
inline const std::uint8_t *
decodeVarint32(const std::uint8_t *p, std::uint32_t &out)
{
    std::uint32_t b = *p++;
    if (b < 0x80) {
        out = b;
        return p;
    }
    std::uint32_t x = b & 0x7f;
    unsigned shift = 7;
    do {
        b = *p++;
        x |= (b & 0x7f) << shift;
        shift += 7;
    } while (b & 0x80);
    out = x;
    return p;
}

/** Why a checked decode rejected its input. */
enum class VarintStatus
{
    Ok,
    Truncated,   //!< continuation bit set at end of buffer
    Overlong,    //!< more than the maximum encoding length, or a
                 //!< non-canonical zero-padded tail byte
    Overflow,    //!< final byte carries bits beyond the output width
};

/** Outcome of a checked decode. */
struct VarintResult
{
    VarintStatus status = VarintStatus::Ok;
    std::size_t bytes = 0;   //!< consumed on Ok; 0 otherwise

    bool ok() const { return status == VarintStatus::Ok; }
};

/** @return human-readable name of a VarintStatus. */
inline const char *
to_string(VarintStatus s)
{
    switch (s) {
      case VarintStatus::Ok:        return "ok";
      case VarintStatus::Truncated: return "truncated varint";
      case VarintStatus::Overlong:  return "overlong varint";
      case VarintStatus::Overflow:  return "varint overflows 32 bits";
    }
    return "?";
}

/**
 * Checked decode of an untrusted 32-bit varint in [p, end).  Never
 * reads past `end`; rejects encodings longer than kMaxVarint32Bytes,
 * values wider than 32 bits, and non-canonical padded encodings (a
 * multi-byte encoding whose last byte is zero, e.g. 0x80 0x00 for 0).
 */
inline VarintResult
getVarint32(const std::uint8_t *p, const std::uint8_t *end,
            std::uint32_t &out)
{
    std::uint32_t x = 0;
    for (std::size_t i = 0; i < kMaxVarint32Bytes; i++) {
        if (p + i == end)
            return {VarintStatus::Truncated, 0};
        const std::uint8_t b = p[i];
        const std::uint32_t payload = b & 0x7f;
        // Byte 4 (the fifth) may only carry 32 - 4*7 = 4 payload bits.
        if (i == kMaxVarint32Bytes - 1 && payload > 0x0f)
            return {VarintStatus::Overflow, 0};
        x |= payload << (7 * i);
        if (!(b & 0x80)) {
            if (i > 0 && payload == 0)
                return {VarintStatus::Overlong, 0};
            out = x;
            return {VarintStatus::Ok, i + 1};
        }
    }
    return {VarintStatus::Overlong, 0};
}

/**
 * Append a sorted (non-decreasing) 32-bit id list as first-absolute +
 * deltas.  An empty list appends nothing — zero-degree vertices cost
 * zero bytes by construction.
 */
inline void
encodeDeltaList32(std::span<const std::uint32_t> sorted,
                  std::vector<std::uint8_t> &out)
{
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < sorted.size(); i++) {
        putVarint32(out, i == 0 ? sorted[0] : sorted[i] - prev);
        prev = sorted[i];
    }
}

/** @return bytes encodeDeltaList32 emits for `sorted`. */
inline std::size_t
deltaList32Bytes(std::span<const std::uint32_t> sorted)
{
    std::size_t n = 0;
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < sorted.size(); i++) {
        n += varint32Bytes(i == 0 ? sorted[0] : sorted[i] - prev);
        prev = sorted[i];
    }
    return n;
}

/** encodeDeltaList32 into the deltaList32Bytes(sorted) bytes at `out`.
 *  @return pointer past the written bytes. */
inline std::uint8_t *
encodeDeltaList32(std::span<const std::uint32_t> sorted, std::uint8_t *out)
{
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < sorted.size(); i++) {
        out = writeVarint32(out, i == 0 ? sorted[0] : sorted[i] - prev);
        prev = sorted[i];
    }
    return out;
}

/**
 * Checked decode of `count` delta-encoded 32-bit ids into `out`
 * (resized).  @return Ok and total bytes consumed, or the first error.
 */
inline VarintResult
decodeDeltaList32(const std::uint8_t *p, const std::uint8_t *end,
                  std::size_t count, std::vector<std::uint32_t> &out)
{
    out.resize(count);
    std::size_t used = 0;
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < count; i++) {
        std::uint32_t d = 0;
        const VarintResult r = getVarint32(p + used, end, d);
        if (!r.ok())
            return r;
        used += r.bytes;
        // The delta chain must not wrap the 32-bit id space.
        if (i > 0 && d > ~prev)
            return {VarintStatus::Overflow, 0};
        prev = i == 0 ? d : prev + d;
        out[i] = prev;
    }
    return {VarintStatus::Ok, used};
}

} // namespace codec
} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_CODEC_HH
