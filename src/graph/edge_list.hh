/**
 * @file
 * Edge-list graph representation — the interchange format of the library.
 *
 * GraphABCD's on-device format is the destination-sliced BlockPartition;
 * the EdgeList is what generators and loaders produce and what every other
 * representation is built from (the paper also feeds its prototype
 * edge-list inputs, Sec. V-A).
 */

#ifndef GRAPHABCD_GRAPH_EDGE_LIST_HH
#define GRAPHABCD_GRAPH_EDGE_LIST_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hh"

namespace graphabcd {

/**
 * An edge list's storage.  resize() leaves the new edges unwritten
 * (UninitAllocator), so the binary loader reads the file straight into
 * pages that nothing touched before; every other way of adding an edge
 * constructs it as usual.
 */
using EdgeVector = UninitVector<Edge>;

/**
 * A directed multigraph as a flat list of edges plus a vertex count.
 * Vertices are dense ids in [0, numVertices()).
 */
class EdgeList
{
  public:
    EdgeList() = default;

    /** @param num_vertices fixes the id space; edges added later. */
    explicit EdgeList(VertexId num_vertices) : nVertices(num_vertices) {}

    /**
     * @param num_vertices id space; @param edge_vec takes ownership.
     * Every endpoint must lie inside the id space: the loaders check
     * each edge as they read it and report a bad one as bad input.
     */
    EdgeList(VertexId num_vertices, EdgeVector edge_vec) noexcept
        : nVertices(num_vertices), edges_(std::move(edge_vec))
    {}

    /** Append one edge; endpoints must be inside the id space. */
    void addEdge(VertexId src, VertexId dst, float weight = 1.0f);

    VertexId numVertices() const { return nVertices; }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }

    const EdgeVector &edges() const { return edges_; }
    EdgeVector &edges() { return edges_; }

    const Edge &edge(EdgeId e) const { return edges_[e]; }

    /**
     * Canonicalise in place: sort by (src, dst) and optionally drop
     * duplicate (src, dst) pairs keeping the first weight.
     */
    void normalize(bool dedup = true);

    /** Remove self loops in place. */
    void removeSelfLoops();

    /** @return a new EdgeList with every edge reversed. */
    EdgeList reversed() const;

    /**
     * @return a new EdgeList with both directions of every edge
     * (used to build undirected views for CC).
     */
    EdgeList symmetrized() const;

    /** @return out-degree of every vertex. */
    std::vector<std::uint32_t> outDegrees() const;

    /** @return in-degree of every vertex. */
    std::vector<std::uint32_t> inDegrees() const;

  private:
    VertexId nVertices = 0;
    EdgeVector edges_;
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_EDGE_LIST_HH
