/**
 * @file
 * Single-Source Shortest Path as a BCD vertex program.
 *
 * Objective (paper Sec. III-A discussion):
 *   F(x) = 1/2 sum_v (x_v - min_{u in in(v)} (x_u + w_uv))^2,
 * whose coordinate update is the label-correcting relaxation
 *   x_v = min(x_v, min_u (x_u + w_uv)).
 * GATHER's reduction is min — associative and commutative, so the tagged
 * dataflow reduction unit evaluates it out of order just like a sum.
 */

#ifndef GRAPHABCD_ALGORITHMS_SSSP_HH
#define GRAPHABCD_ALGORITHMS_SSSP_HH

#include <algorithm>
#include <cmath>

#include "core/vertex_program.hh"
#include "graph/partition.hh"

namespace graphabcd {

/** SSSP vertex program (label correcting). */
struct SsspProgram
{
    using Value = double;   //!< tentative distance from the source
    using Accum = double;   //!< min over in-coming relaxations

    static constexpr Accumulation accumulation = Accumulation::Min;

    VertexId source = 0;

    /** Finite stand-in for "unreached" that survives + weight. */
    static constexpr double unreachable = 1e18;

    explicit SsspProgram(VertexId src = 0) : source(src) {}

    Value
    init(VertexId v, const BlockPartition &) const
    {
        return v == source ? 0.0 : unreachable;
    }

    Accum identity() const { return unreachable; }

    Accum
    edgeTerm(const Value &, const Value &edge_value, float weight) const
    {
        return edge_value >= unreachable
            ? unreachable
            : edge_value + static_cast<double>(weight);
    }

    Accum combine(Accum a, Accum b) const { return std::min(a, b); }

    Value
    apply(VertexId, const Accum &acc, const Value &old,
          const BlockPartition &) const
    {
        return std::min(old, acc);
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
 * Breadth-First Search expressed as unit-weight SSSP: the value is the
 * hop depth.  GraphABCD executes it label-correcting rather than
 * level-synchronous; the fixed point is the same BFS depth.
 */
struct BfsProgram : SsspProgram
{
    explicit BfsProgram(VertexId src = 0) : SsspProgram(src) {}

    Accum
    edgeTerm(const Value &, const Value &edge_value, float) const
    {
        return edge_value >= unreachable ? unreachable : edge_value + 1.0;
    }
};

/**
 * Connected Components via min-label propagation: every vertex adopts
 * the smallest vertex id reachable from it.  Run on a symmetrized graph.
 */
struct CcProgram
{
    using Value = double;   //!< current component label (a vertex id)
    using Accum = double;

    static constexpr Accumulation accumulation = Accumulation::Min;

    /** Finite "no label yet": every vertex id is smaller. */
    static constexpr double unlabeled = 1e18;

    Value init(VertexId v, const BlockPartition &) const { return v; }

    Accum identity() const { return unlabeled; }

    Accum
    edgeTerm(const Value &, const Value &edge_value, float) const
    {
        return edge_value;
    }

    Accum combine(Accum a, Accum b) const { return std::min(a, b); }

    Value
    apply(VertexId, const Accum &acc, const Value &old,
          const BlockPartition &) const
    {
        return std::min(old, acc);
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

} // namespace graphabcd

#endif // GRAPHABCD_ALGORITHMS_SSSP_HH
