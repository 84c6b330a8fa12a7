#include "graph/edge_list.hh"

#include <algorithm>

#include "support/logging.hh"

namespace graphabcd {

void
EdgeList::addEdge(VertexId src, VertexId dst, float weight)
{
    GRAPHABCD_ASSERT(src < nVertices && dst < nVertices,
                     "edge endpoint outside the vertex id space");
    edges_.emplace_back(src, dst, weight);
}

void
EdgeList::normalize(bool dedup)
{
    // Stable, so dedup keeps each (src, dst)'s first input occurrence:
    // symmetrized() then keeps the same weight in both directions.
    std::stable_sort(edges_.begin(), edges_.end(),
                     [](const Edge &a, const Edge &b) {
                         return a.src != b.src ? a.src < b.src
                                               : a.dst < b.dst;
                     });
    if (dedup) {
        auto last = std::unique(edges_.begin(), edges_.end(),
                                [](const Edge &a, const Edge &b) {
                                    return a.src == b.src && a.dst == b.dst;
                                });
        edges_.erase(last, edges_.end());
    }
}

void
EdgeList::removeSelfLoops()
{
    auto last = std::remove_if(edges_.begin(), edges_.end(),
                               [](const Edge &e) { return e.src == e.dst; });
    edges_.erase(last, edges_.end());
}

EdgeList
EdgeList::reversed() const
{
    EdgeList out(nVertices);
    out.edges_.reserve(edges_.size());
    for (const Edge &e : edges_)
        out.edges_.emplace_back(e.dst, e.src, e.weight);
    return out;
}

EdgeList
EdgeList::symmetrized() const
{
    EdgeList out(nVertices);
    out.edges_.reserve(edges_.size() * 2);
    for (const Edge &e : edges_) {
        out.edges_.emplace_back(e.src, e.dst, e.weight);
        if (e.src != e.dst)
            out.edges_.emplace_back(e.dst, e.src, e.weight);
    }
    out.normalize(true);
    return out;
}

std::vector<std::uint32_t>
EdgeList::outDegrees() const
{
    std::vector<std::uint32_t> deg(nVertices, 0);
    for (const Edge &e : edges_)
        deg[e.src]++;
    return deg;
}

std::vector<std::uint32_t>
EdgeList::inDegrees() const
{
    std::vector<std::uint32_t> deg(nVertices, 0);
    for (const Edge &e : edges_)
        deg[e.dst]++;
    return deg;
}

} // namespace graphabcd
