/**
 * @file
 * Compressed sparse row adjacency, used by the GraphMat baseline and the
 * exact reference algorithms: classic parallel (neighbor, weight)
 * arrays, viewed row by row through neighbors()/weights().
 */

#ifndef GRAPHABCD_GRAPH_CSR_HH
#define GRAPHABCD_GRAPH_CSR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hh"
#include "graph/types.hh"

namespace graphabcd {

/**
 * CSR adjacency: for each vertex, a contiguous span of (neighbor, weight)
 * pairs.  Build "by source" for out-adjacency or "by destination" for
 * in-adjacency (CSC).
 */
class Csr
{
  public:
    /** Which endpoint indexes the rows. */
    enum class Axis { BySource, ByDestination };

    Csr() = default;

    /**
     * Build from an edge list.
     * @param el input edges.
     * @param axis BySource => row v holds v's out-neighbors (dst ids);
     *             ByDestination => row v holds v's in-neighbors (src ids).
     */
    Csr(const EdgeList &el, Axis axis);

    VertexId numVertices() const { return nVertices; }
    EdgeId numEdges() const { return nEdges; }

    /** @return neighbor ids of `row` (out- or in-, per the build axis). */
    std::span<const VertexId>
    neighbors(VertexId row) const
    {
        return {adj.data() + offsets[row],
                adj.data() + offsets[row + 1]};
    }

    /** @return weights parallel to neighbors(row). */
    std::span<const float>
    weights(VertexId row) const
    {
        return {wgt.data() + offsets[row], wgt.data() + offsets[row + 1]};
    }

    /** @return degree of the row (out- or in-, per the build axis). */
    std::uint32_t
    degree(VertexId row) const
    {
        return static_cast<std::uint32_t>(offsets[row + 1] - offsets[row]);
    }

    /** @return the row offsets array (size numVertices()+1). */
    const std::vector<EdgeId> &rowOffsets() const { return offsets; }

  private:
    VertexId nVertices = 0;
    EdgeId nEdges = 0;
    std::vector<EdgeId> offsets;   //!< size nVertices+1
    std::vector<VertexId> adj;     //!< size numEdges
    std::vector<float> wgt;        //!< size numEdges
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_CSR_HH
