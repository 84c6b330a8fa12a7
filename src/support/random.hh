/**
 * @file
 * Deterministic, seedable pseudo-random number generation.
 *
 * All stochastic pieces of the library (graph generators, random
 * schedulers, workload synthesis) draw from these generators so that every
 * experiment is reproducible from a single seed.  SplitMix64 is used for
 * seeding; Xoshiro256** is the workhorse generator.
 */

#ifndef GRAPHABCD_SUPPORT_RANDOM_HH
#define GRAPHABCD_SUPPORT_RANDOM_HH

#include <array>
#include <cstdint>

#include "support/logging.hh"

namespace graphabcd {

/**
 * SplitMix64: tiny generator used to expand a 64-bit seed into the state
 * of larger generators.  Passes BigCrush when used directly as well.
 */
class SplitMix64
{
  public:
    /** @param seed any 64-bit value; equal seeds give equal streams. */
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** @return the next 64 pseudo-random bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * Xoshiro256**: fast, high-quality 64-bit generator
 * (Blackman & Vigna, 2018).  Satisfies the C++ UniformRandomBitGenerator
 * requirements so it can feed std::shuffle and friends.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a single seed via SplitMix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        SplitMix64 sm(seed);
        for (auto &word : s)
            word = sm.next();
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** @return the next 64 pseudo-random bits. */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** @return uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /**
     * @param bound exclusive upper bound, must be > 0.
     * @return uniform integer in [0, bound) using Lemire's method.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        GRAPHABCD_ASSERT(bound > 0, "nextBounded needs a positive bound");
        // Multiply-shift rejection-free approximation is fine here; use
        // the classic widening multiply which is unbiased enough for
        // workload synthesis while staying branch-light.
        unsigned __int128 m =
            static_cast<unsigned __int128>((*this)()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /** @return standard normal deviate (Box-Muller, polar form). */
    double nextGaussian();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s;
};

/**
 * Zipf-distributed integer sampler over [0, n) with exponent `theta`.
 * Used to synthesise skewed item popularity in bipartite rating graphs.
 * Uses the standard rejection-inversion-free CDF table for small n and
 * falls back to Gray's approximation above the table limit.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of distinct items, must be > 0.
     * @param theta skew exponent; 0 gives the uniform distribution.
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** @return a Zipf-distributed index in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    /** @return the number of items. */
    std::uint64_t size() const { return n; }

  private:
    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
};

} // namespace graphabcd

#endif // GRAPHABCD_SUPPORT_RANDOM_HH
