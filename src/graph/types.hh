/**
 * @file
 * Fundamental graph identifier and edge types.
 */

#ifndef GRAPHABCD_GRAPH_TYPES_HH
#define GRAPHABCD_GRAPH_TYPES_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace graphabcd {

/** Vertex identifier; dense in [0, numVertices). */
using VertexId = std::uint32_t;

/** Edge identifier / index into flat edge arrays. */
using EdgeId = std::uint64_t;

/** Block identifier within a BlockPartition. */
using BlockId = std::uint32_t;

/** Sentinel for "no vertex". */
constexpr VertexId invalidVertex = std::numeric_limits<VertexId>::max();

/** Sentinel for "no block". */
constexpr BlockId invalidBlock = std::numeric_limits<BlockId>::max();

/** Edges per task of every graph set-up pass (the binary load and the
 *  partition build).  A graph of at most this many edges sets up as
 *  one task on the calling thread. */
constexpr EdgeId kSetupGrain = EdgeId{1} << 19;

/**
 * std::allocator whose value-initialisation (resize(n), vector(n))
 * constructs nothing: the elements stay as the allocation left them
 * until a later pass writes them.  For set-up arrays that such a pass
 * overwrites in full, so that the first write to each page happens on
 * the pool tasks of that pass rather than as a zero fill on the
 * calling thread.  Construction with arguments (push_back, assign,
 * emplace_back(args...)) behaves as usual.
 */
template <typename T>
struct UninitAllocator : std::allocator<T>
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "only bytes may be left unconstructed");

    using value_type = T;

    UninitAllocator() = default;
    template <typename U>
    UninitAllocator(const UninitAllocator<U> &) noexcept
    {}

    template <typename U>
    void
    construct(U *) noexcept
    {}

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
};

/** A vector whose resize() leaves the new elements unwritten. */
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

/**
 * A directed, weighted edge.  Unweighted algorithms ignore `weight`;
 * Collaborative Filtering stores the rating there.
 */
struct Edge
{
    VertexId src = 0;
    VertexId dst = 0;
    float weight = 1.0f;

    Edge() = default;
    Edge(VertexId s, VertexId d, float w = 1.0f)
        : src(s), dst(d), weight(w)
    {}

    bool
    operator==(const Edge &other) const
    {
        return src == other.src && dst == other.dst &&
               weight == other.weight;
    }
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_TYPES_HH
