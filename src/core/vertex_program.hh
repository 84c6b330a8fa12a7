/**
 * @file
 * The GAS vertex-program contract used by every GraphABCD engine.
 *
 * GraphABCD executes the *pull-push* variant of Gather-Apply-Scatter
 * (paper Fig. 3(c)): SCATTER publishes an edge value per vertex, and
 * GATHER streams a block's in-edge slice and reads its sources'
 * published values (core/state.hh).  A vertex program supplies:
 *
 *   Value      — the per-vertex (and edge-carried) state;
 *   Accum      — the GATHER accumulator;
 *   init       — initial vertex value;
 *   identity   — GATHER identity element;
 *   edgeTerm   — maps one in-edge to an Accum (may read the destination's
 *                current value, which the PE holds in its input buffer);
 *   combine    — associative & commutative reduction of two Accums (this
 *                is what the tagged dataflow reduction unit evaluates
 *                out of order, paper Sec. IV-C);
 *   apply      — new vertex value from old value + reduced accumulator;
 *   edgeValue  — the value SCATTER publishes for its out-edges (e.g.
 *                rank/deg for PageRank);
 *   delta      — scalar magnitude of a value change, used for the
 *                activation threshold and the Gauss-Southwell priority
 *                estimate (paper Sec. IV-B).
 *
 * Programs must be cheap to copy; engines pass them by value.
 *
 * A program whose update meets Maiter's conditions also declares
 * `accumulation` (see Accumulable); the accumulative engine derives its
 * delta form from the same definition (core/accum_engine.hh).
 */

#ifndef GRAPHABCD_CORE_VERTEX_PROGRAM_HH
#define GRAPHABCD_CORE_VERTEX_PROGRAM_HH

#include <concepts>
#include <type_traits>

#include "graph/partition.hh"
#include "graph/types.hh"

namespace graphabcd {

/**
 * Compile-time check of the vertex-program contract.  Violations produce
 * a readable diagnostic at the engine instantiation site.
 */
template <typename P>
concept VertexProgram = requires(const P p, typename P::Value v,
                                 typename P::Accum a, VertexId vid,
                                 const BlockPartition &g, float w) {
    typename P::Value;
    typename P::Accum;
    { p.init(vid, g) } -> std::convertible_to<typename P::Value>;
    { p.identity() } -> std::convertible_to<typename P::Accum>;
    { p.edgeTerm(v, v, w) } -> std::convertible_to<typename P::Accum>;
    { p.combine(a, a) } -> std::convertible_to<typename P::Accum>;
    { p.apply(vid, a, v, g) } -> std::convertible_to<typename P::Value>;
    { p.edgeValue(vid, v, g) } -> std::convertible_to<typename P::Value>;
    { p.delta(v, v) } -> std::convertible_to<double>;
};

/**
 * How an accumulable program's GATHER reduction meets its apply —
 * Maiter's conditions for a delta (accumulative) form.
 */
enum class Accumulation
{
    Sum,   //!< combine is +, apply(v) = teleport(v) + alpha * acc
    Min,   //!< combine is min, apply(old, acc) = min(old, acc)
};

/**
 * A vertex program with a delta form: it declares
 * `static constexpr Accumulation accumulation`, its Accum is its Value,
 * and its edgeTerm ignores the destination's value (a delta is shipped
 * before the destination is read).  A Sum program also exposes
 * `teleport(v, g)` and its damping `alpha`.
 */
template <typename P>
concept Accumulable =
    VertexProgram<P> &&
    std::same_as<typename P::Accum, typename P::Value> &&
    requires {
        { P::accumulation } -> std::convertible_to<Accumulation>;
    } &&
    (P::accumulation == Accumulation::Min ||
     requires(const P p, VertexId vid, const BlockPartition &g) {
         { p.teleport(vid, g) } -> std::convertible_to<typename P::Value>;
         { p.alpha } -> std::convertible_to<double>;
     });

} // namespace graphabcd

#endif // GRAPHABCD_CORE_VERTEX_PROGRAM_HH
