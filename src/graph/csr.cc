#include "graph/csr.hh"

namespace graphabcd {

Csr::Csr(const EdgeList &el, Axis axis)
    : nVertices(el.numVertices()), nEdges(el.numEdges())
{
    const EdgeId m = nEdges;
    offsets.assign(static_cast<std::size_t>(nVertices) + 1, 0);
    adj.resize(m);
    wgt.resize(m);

    // Counting sort by the row endpoint: one pass to count, prefix sum,
    // one pass to place.  Keeps construction O(V + E) even for the
    // billion-edge-scale stand-ins.
    for (const Edge &e : el.edges()) {
        VertexId row = axis == Axis::BySource ? e.src : e.dst;
        offsets[row + 1]++;
    }
    for (VertexId v = 0; v < nVertices; v++)
        offsets[v + 1] += offsets[v];

    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge &e : el.edges()) {
        VertexId row = axis == Axis::BySource ? e.src : e.dst;
        VertexId col = axis == Axis::BySource ? e.dst : e.src;
        EdgeId pos = cursor[row]++;
        adj[pos] = col;
        wgt[pos] = e.weight;
    }
}

} // namespace graphabcd
