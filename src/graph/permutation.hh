/**
 * @file
 * Vertex permutation for degree-aware reordering.
 *
 * Hub-clustering sorts vertices into descending log2-degree buckets
 * (stable within a bucket), packing the high-degree hubs of a skewed
 * graph into the first vertex blocks.  That concentrates the hot
 * vertex values in a few cache-resident blocks and shrinks the deltas
 * of sorted neighbor lists — the layout transformation GraphScale
 * identifies as first-order for bandwidth-bound traversal.
 *
 * Contract (DESIGN.md §11): engines run entirely in *internal*
 * (permuted) ids.  The permutation is applied exactly once, as the
 * partition build reads the EdgeList, and un-applied exactly once, at
 * the API boundary (serve runner / CLI dump), so every id a caller
 * sends or receives is an original id.  On a uniform-degree graph
 * every vertex lands in the same bucket and the stable sort leaves ids
 * untouched — hubCluster detects that and returns identity.
 */

#ifndef GRAPHABCD_GRAPH_PERMUTATION_HH
#define GRAPHABCD_GRAPH_PERMUTATION_HH

#include <cassert>
#include <vector>

#include "graph/edge_list.hh"
#include "graph/types.hh"

namespace graphabcd {

/** Bijection between original and internal (layout) vertex ids. */
class VertexPermutation
{
  public:
    /** Identity over an empty id space. */
    VertexPermutation() = default;

    /**
     * Adopt a mapping original -> internal; must be a bijection on
     * [0, to_internal.size()).
     */
    explicit VertexPermutation(std::vector<VertexId> to_internal);

    /**
     * Build the hub-clustering permutation for `el`: bucket by
     * floor(log2(total degree + 1)), stable sort by descending bucket.
     * @return identity when the sort does not move any vertex.
     */
    static VertexPermutation hubCluster(const EdgeList &el);

    bool isIdentity() const { return identity_; }

    VertexId
    numVertices() const
    {
        return static_cast<VertexId>(toInternal_.size());
    }

    /** Original id -> internal id (identity when empty). */
    VertexId
    toInternal(VertexId original) const
    {
        return identity_ ? original : toInternal_[original];
    }

    /** Internal id -> original id (identity when empty). */
    VertexId
    toOriginal(VertexId internal) const
    {
        return identity_ ? internal : toOriginal_[internal];
    }

    /**
     * Re-key a per-vertex vector from internal to original ids:
     * result[orig] = internal_values[toInternal(orig)].
     */
    template <typename T>
    std::vector<T>
    valuesToOriginal(const std::vector<T> &internal_values) const
    {
        if (identity_)
            return internal_values;
        assert(internal_values.size() == toInternal_.size());
        std::vector<T> out(internal_values.size());
        for (VertexId v = 0; v < toInternal_.size(); v++)
            out[v] = internal_values[toInternal_[v]];
        return out;
    }

    /**
     * Re-key a per-vertex vector from original to internal ids:
     * result[internal] = original_values[toOriginal(internal)].
     */
    template <typename T>
    std::vector<T>
    valuesToInternal(const std::vector<T> &original_values) const
    {
        if (identity_)
            return original_values;
        assert(original_values.size() == toOriginal_.size());
        std::vector<T> out(original_values.size());
        for (VertexId v = 0; v < toOriginal_.size(); v++)
            out[v] = original_values[toOriginal_[v]];
        return out;
    }

  private:
    // Both empty iff identity_; kept in sync by the ctor.
    std::vector<VertexId> toInternal_;  //!< original -> internal
    std::vector<VertexId> toOriginal_;  //!< internal -> original
    bool identity_ = true;
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_PERMUTATION_HH
