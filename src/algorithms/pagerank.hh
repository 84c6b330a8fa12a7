/**
 * @file
 * PageRank as a BCD vertex program (paper Sec. III-A2).
 *
 * Objective (Eq. 3): F(x) = 1/2 (Px + b - x)^2 with
 * P = alpha (G^-1 A)^T and b = (1-alpha)/|V| e.  Gradient descent on one
 * coordinate recovers the classic iteration
 *     x_v = (1-alpha)/|V| + alpha * sum_{u in in(v)} x_u / outdeg(u).
 *
 * The edge-carried value is x_u / outdeg(u) (Fig. 3(c)'s trick), so
 * GATHER is a plain sum over the sequential edge slice.
 */

#ifndef GRAPHABCD_ALGORITHMS_PAGERANK_HH
#define GRAPHABCD_ALGORITHMS_PAGERANK_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/vertex_program.hh"
#include "graph/partition.hh"

namespace graphabcd {

/**
 * The linear PageRank family, x_v = teleport(v) + alpha * sum_u x_u /
 * outdeg(u): PageRank and Personalized PageRank differ only in where
 * the (1-alpha) teleport mass lands.  Self supplies init() and
 * teleport(); the update formula lives here once, and its Sum
 * accumulation gives both programs their delta form.
 */
template <typename Self>
struct LinearRankProgram
{
    using Value = double;   //!< the vertex's rank
    using Accum = double;   //!< sum of in-coming rank/degree

    static constexpr Accumulation accumulation = Accumulation::Sum;

    double alpha = 0.85;    //!< damping factor

    explicit LinearRankProgram(double damping = 0.85) : alpha(damping) {}

    Accum identity() const { return 0.0; }

    Accum
    edgeTerm(const Value &, const Value &edge_value, float) const
    {
        return edge_value;   // already divided by the source out-degree
    }

    Accum combine(Accum a, Accum b) const { return a + b; }

    Value
    apply(VertexId v, const Accum &acc, const Value &,
          const BlockPartition &g) const
    {
        return static_cast<const Self &>(*this).teleport(v, g) +
               alpha * acc;
    }

    Value
    edgeValue(VertexId v, const Value &value, const BlockPartition &g)
        const
    {
        const std::uint32_t d = g.outDegree(v);
        return d ? value / d : 0.0;
    }

    double delta(const Value &a, const Value &b) const
    {
        return std::abs(a - b);
    }
};

/** PageRank vertex program: uniform teleport b = (1-alpha)/|V| e. */
struct PageRankProgram : LinearRankProgram<PageRankProgram>
{
    using LinearRankProgram::LinearRankProgram;

    Value
    init(VertexId, const BlockPartition &g) const
    {
        return 1.0 / std::max<double>(g.numVertices(), 1.0);
    }

    Value
    teleport(VertexId, const BlockPartition &g) const
    {
        return (1.0 - alpha) / std::max<double>(g.numVertices(), 1.0);
    }
};

/**
 * L2 norm of the PageRank optimality residual ||Px + b - x||_2 — the
 * gradient magnitude of Eq. (3).  Zero at the stationary point.
 */
double pagerankResidual(const BlockPartition &g,
                        const std::vector<double> &x, double alpha);

/** Sum of all ranks (= 1 - leaked dangling mass; sanity metric). */
double pagerankMass(const std::vector<double> &x);

} // namespace graphabcd

#endif // GRAPHABCD_ALGORITHMS_PAGERANK_HH
