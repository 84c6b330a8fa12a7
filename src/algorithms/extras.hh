/**
 * @file
 * Additional GAS-paradigm algorithms beyond the paper's evaluation set,
 * demonstrating the generality the paper claims for the BCD view
 * (Sec. II-A lists the GAS family): Personalized PageRank, k-core
 * decomposition and greedy graph coloring.
 */

#ifndef GRAPHABCD_ALGORITHMS_EXTRAS_HH
#define GRAPHABCD_ALGORITHMS_EXTRAS_HH

#include <cmath>
#include <cstdint>

#include "algorithms/pagerank.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"

namespace graphabcd {

/**
 * Personalized PageRank: teleportation returns to one source vertex
 * instead of the uniform vector, i.e. b = (1-alpha) * e_source in the
 * Eq. (3) objective.  Ranks measure proximity to the source.
 */
struct PersonalizedPageRankProgram
    : LinearRankProgram<PersonalizedPageRankProgram>
{
    VertexId source = 0;

    PersonalizedPageRankProgram(VertexId src, double damping = 0.85)
        : LinearRankProgram(damping), source(src)
    {}

    Value
    init(VertexId v, const BlockPartition &) const
    {
        return v == source ? 1.0 : 0.0;
    }

    Value
    teleport(VertexId v, const BlockPartition &) const
    {
        return v == source ? 1.0 - alpha : 0.0;
    }
};

/**
 * k-core membership: iteratively drop vertices with fewer than k
 * *surviving* neighbors; the fixed point marks exactly the k-core.
 * Value is 1.0 (alive) / 0.0 (peeled); the gather counts surviving
 * in-neighbors.  Monotone (vertices only ever die), so it converges
 * under any schedule.  Run on a symmetrized graph.
 */
struct KCoreProgram
{
    using Value = double;   //!< 1 = in the candidate core, 0 = peeled
    using Accum = double;   //!< count of surviving in-neighbors

    std::uint32_t k = 2;

    explicit KCoreProgram(std::uint32_t core_k) : k(core_k) {}

    Value init(VertexId, const BlockPartition &) const { return 1.0; }

    Accum identity() const { return 0.0; }

    Accum
    edgeTerm(const Value &, const Value &edge_value, float) const
    {
        return edge_value;
    }

    Accum combine(Accum a, Accum b) const { return a + b; }

    Value
    apply(VertexId, const Accum &acc, const Value &old,
          const BlockPartition &) const
    {
        // Once peeled, stay peeled (monotonicity).
        if (old == 0.0)
            return 0.0;
        return acc + 0.5 >= static_cast<double>(k) ? 1.0 : 0.0;
    }

    Value
    edgeValue(VertexId, const Value &value, const BlockPartition &) const
    {
        return value;
    }

    double delta(const Value &a, const Value &b) const
    {
        return std::abs(a - b);
    }
};

/**
 * Greedy graph coloring with id-based symmetry breaking (the
 * Jones-Plassmann flavour that terminates under Jacobi/block updates):
 * every vertex takes the smallest color not used by its *smaller-id*
 * neighbors, which converges to the deterministic sequential greedy
 * coloring under any fair schedule — including asynchronous ones.
 *
 * The per-vertex value packs (vertex id, color) so the GATHER stage can
 * compare ids; the accumulator is a 64-bit occupied-color mask, combined
 * with bitwise OR — associative, commutative, reduction-unit friendly.
 * Supports up to 63 colors; run on a symmetrized graph.
 */
struct ColoringProgram
{
    using Value = double;          //!< packs (id, color); see encode()
    using Accum = std::uint64_t;   //!< occupied-color bitmask

    /** Pack a vertex id and its color into one exact double. */
    static Value
    encode(VertexId id, std::uint32_t color)
    {
        // color * 2^32 + id < 2^38: exactly representable in a double.
        return static_cast<double>(color) * 4294967296.0 +
               static_cast<double>(id);
    }

    /** @return the color stored in a packed value. */
    static std::uint32_t
    colorOf(const Value &value)
    {
        return static_cast<std::uint32_t>(value / 4294967296.0);
    }

    /** @return the vertex id stored in a packed value. */
    static VertexId
    idOf(const Value &value)
    {
        return static_cast<VertexId>(
            value - static_cast<double>(colorOf(value)) * 4294967296.0);
    }

    Value
    init(VertexId v, const BlockPartition &) const
    {
        return encode(v, 0);
    }

    Accum identity() const { return 0; }

    Accum
    edgeTerm(const Value &dst_old, const Value &edge_value, float) const
    {
        // Only smaller-id neighbors constrain this vertex.
        if (idOf(edge_value) >= idOf(dst_old))
            return 0;
        std::uint32_t color = colorOf(edge_value);
        return color < 63 ? (1ULL << color) : 0;
    }

    Accum combine(Accum a, Accum b) const { return a | b; }

    Value
    apply(VertexId v, const Accum &acc, const Value &,
          const BlockPartition &) const
    {
        for (std::uint32_t c = 0; c < 63; c++) {
            if (!(acc & (1ULL << c)))
                return encode(v, c);
        }
        return encode(v, 63);   // overflow bucket (degeneracy > 63)
    }

    Value
    edgeValue(VertexId, const Value &value, const BlockPartition &) const
    {
        return value;
    }

    double delta(const Value &a, const Value &b) const
    {
        return std::abs(a - b);
    }
};

/**
 * @return number of edges whose endpoints share a color (0 for a
 * proper coloring); checker for ColoringProgram results.
 */
std::uint64_t coloringConflicts(const BlockPartition &g,
                                const std::vector<double> &colors);

/** @return number of vertices marked alive (KCoreProgram results). */
std::uint64_t kcoreSize(const std::vector<double> &alive);

/**
 * Exact k-core reference via repeated peeling on degree counts.
 * @return 1.0/0.0 per vertex, matching KCoreProgram's fixed point.
 */
std::vector<double> kcoreReference(const EdgeList &sym, std::uint32_t k);

} // namespace graphabcd

#endif // GRAPHABCD_ALGORITHMS_EXTRAS_HH
