#include "graph/permutation.hh"

#include <array>
#include <bit>
#include <utility>

namespace graphabcd {

VertexPermutation::VertexPermutation(std::vector<VertexId> to_internal)
    : toInternal_(std::move(to_internal))
{
    identity_ = true;
    for (VertexId v = 0; v < toInternal_.size(); v++) {
        if (toInternal_[v] != v) {
            identity_ = false;
            break;
        }
    }
    if (identity_) {
        toInternal_.clear();
        return;
    }
    toOriginal_.assign(toInternal_.size(), invalidVertex);
    for (VertexId v = 0; v < toInternal_.size(); v++) {
        assert(toInternal_[v] < toOriginal_.size());
        assert(toOriginal_[toInternal_[v]] == invalidVertex &&
               "permutation is not a bijection");
        toOriginal_[toInternal_[v]] = v;
    }
}

VertexPermutation
VertexPermutation::hubCluster(const EdgeList &el)
{
    const VertexId n = el.numVertices();
    const auto out_deg = el.outDegrees();
    const auto in_deg = el.inDegrees();

    // Bucket by the log2 of the total degree so hubs of similar weight
    // cluster together, in descending bucket order; a stable counting
    // sort keeps input order within a bucket (keeps locality the input
    // already had).  bit_width(deg + 1) of a 33-bit degree sum is in
    // [1, 33], so the rank 33 - bucket is in [0, 32].
    auto rank = [&](VertexId v) {
        const std::uint64_t deg =
            static_cast<std::uint64_t>(out_deg[v]) + in_deg[v];
        return 33 - std::bit_width(deg + 1);
    };
    std::array<VertexId, 33> next{};
    for (VertexId v = 0; v < n; v++)
        next[rank(v)]++;
    VertexId slot = 0;
    for (VertexId &r : next)
        slot += std::exchange(r, slot);

    std::vector<VertexId> to_internal(n);
    for (VertexId v = 0; v < n; v++)
        to_internal[v] = next[rank(v)]++;
    return VertexPermutation(std::move(to_internal));
}

} // namespace graphabcd
