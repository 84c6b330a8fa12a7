#include "graph/partition.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace graphabcd {

BlockPartition::BlockPartition(const EdgeList &el, VertexId block_size,
                               LayoutOptions lo)
    : nVertices(el.numVertices()), layoutOpts_(lo)
{
    GRAPHABCD_ASSERT(block_size > 0, "block size must be positive");
    blockSize_ = std::min<VertexId>(block_size,
                                    std::max<VertexId>(nVertices, 1));
    nBlocks = nVertices == 0
        ? 0
        : static_cast<BlockId>((nVertices + blockSize_ - 1) / blockSize_);

    blockBegins.resize(static_cast<std::size_t>(nBlocks) + 1);
    for (BlockId b = 0; b < nBlocks; b++)
        blockBegins[b] = b * blockSize_;
    blockBegins[nBlocks] = nVertices;

    if (layoutOpts_.reorder == VertexReorder::Hub) {
        perm_ = VertexPermutation::hubCluster(el);
        buildFromBoundaries(perm_.apply(el));
    } else {
        buildFromBoundaries(el);
    }
}

BlockPartition::BlockPartition(const EdgeList &el,
                               EdgeId target_edges_per_block,
                               EdgeBalanced, LayoutOptions lo)
    : nVertices(el.numVertices()), layoutOpts_(lo)
{
    GRAPHABCD_ASSERT(target_edges_per_block > 0,
                     "edge budget must be positive");

    // The edge-balanced cut depends on per-vertex in-degrees, so remap
    // to internal ids *before* computing the boundaries.
    EdgeList remapped;
    const EdgeList *input = &el;
    if (layoutOpts_.reorder == VertexReorder::Hub) {
        perm_ = VertexPermutation::hubCluster(el);
        remapped = perm_.apply(el);
        input = &remapped;
    }

    // Greedy contiguous cut: extend the current block until its in-edge
    // count reaches the target; a single hub vertex may exceed the
    // target on its own (blocks always hold at least one vertex).
    std::vector<std::uint32_t> ind = input->inDegrees();
    blockBegins.push_back(0);
    EdgeId in_block = 0;
    for (VertexId v = 0; v < nVertices; v++) {
        in_block += ind[v];
        if (in_block >= target_edges_per_block && v + 1 < nVertices) {
            blockBegins.push_back(v + 1);
            in_block = 0;
        }
    }
    if (nVertices > 0)
        blockBegins.push_back(nVertices);
    else
        blockBegins.assign(1, 0);

    nBlocks = static_cast<BlockId>(blockBegins.size() - 1);
    blockSize_ = nBlocks
        ? std::max<VertexId>(1, nVertices / nBlocks)
        : 1;

    buildFromBoundaries(*input);
}

WeightColumn::WeightColumn(std::vector<float> w, WeightMode mode)
    : mode_(mode)
{
    switch (mode_) {
      case WeightMode::Unit:
        break;
      case WeightMode::U8:
        u8_.resize(w.size());
        for (std::size_t i = 0; i < w.size(); i++)
            u8_[i] = static_cast<std::uint8_t>(w[i]);
        break;
      case WeightMode::Float32:
        f32_ = std::move(w);
        break;
    }
}

void
BlockPartition::buildFromBoundaries(const EdgeList &el)
{
    // Vertex -> block lookup.
    vertexBlock.resize(nVertices);
    for (BlockId b = 0; b < nBlocks; b++) {
        for (VertexId v = blockBegins[b]; v < blockBegins[b + 1]; v++)
            vertexBlock[v] = b;
    }

    const EdgeId m = el.numEdges();
    nEdges_ = m;
    inOffsets.assign(static_cast<std::size_t>(nVertices) + 1, 0);
    edgeSrc_.resize(m);
    std::vector<float> wgt(m);

    // Counting sort by destination: in-coming edges of the same vertex
    // become contiguous; since blocks are contiguous vertex ranges, each
    // block's edge slice is contiguous too (the paper's layout).
    for (const Edge &e : el.edges())
        inOffsets[e.dst + 1]++;
    for (VertexId v = 0; v < nVertices; v++)
        inOffsets[v + 1] += inOffsets[v];

    {
        std::vector<EdgeId> cursor(inOffsets.begin(), inOffsets.end() - 1);
        for (const Edge &e : el.edges()) {
            EdgeId pos = cursor[e.dst]++;
            edgeSrc_[pos] = e.src;
            wgt[pos] = e.weight;
        }
    }

    // Compressed layouts delta-encode each vertex's source list, which
    // requires it sorted; plain layouts keep the input-order lists byte
    // for byte.  The out-edge adjacency below is built from the final
    // CSC order either way.
    if (compressed())
        sortInLists(wgt);
    const WeightMode mode =
        compressed() ? narrowestWeightMode(wgt) : WeightMode::Float32;

    // Out-edge adjacency: a second counting sort, by *source*.  Walking
    // the CSC in position order fills each source's slots ascending by
    // destination (CSC order within a destination's multi-edges).
    scatterOffsets.assign(static_cast<std::size_t>(nVertices) + 1, 0);
    for (EdgeId pos = 0; pos < m; pos++)
        scatterOffsets[edgeSrc_[pos] + 1]++;
    for (VertexId v = 0; v < nVertices; v++)
        scatterOffsets[v + 1] += scatterOffsets[v];

    outDst_.resize(m);
    scatterBlk_.resize(m);
    std::vector<float> out_wgt(mode == WeightMode::Unit ? 0 : m);
    {
        std::vector<EdgeId> cursor(scatterOffsets.begin(),
                                   scatterOffsets.end() - 1);
        for (VertexId v = 0; v < nVertices; v++) {
            for (EdgeId pos = inOffsets[v]; pos < inOffsets[v + 1]; pos++) {
                const EdgeId slot = cursor[edgeSrc_[pos]]++;
                outDst_[slot] = v;
                scatterBlk_[slot] = vertexBlock[v];
                if (!out_wgt.empty())
                    out_wgt[slot] = wgt[pos];
            }
        }
    }
    outWeights_ = WeightColumn(std::move(out_wgt), mode);
    inWeights_ = WeightColumn(std::move(wgt), mode);

    if (compressed())
        packGatherStream();
}

void
BlockPartition::sortInLists(std::vector<float> &wgt)
{
    // Sort each vertex's in-list segment by source id so the deltas of
    // the packed stream are non-negative and small.  Destination is
    // constant inside a segment; weights travel with their source.
    std::vector<std::pair<VertexId, float>> seg;
    for (VertexId v = 0; v < nVertices; v++) {
        const EdgeId begin = inOffsets[v], end = inOffsets[v + 1];
        if (end - begin < 2)
            continue;
        seg.clear();
        for (EdgeId e = begin; e < end; e++)
            seg.emplace_back(edgeSrc_[e], wgt[e]);
        std::stable_sort(seg.begin(), seg.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (EdgeId e = begin; e < end; e++) {
            edgeSrc_[e] = seg[e - begin].first;
            wgt[e] = seg[e - begin].second;
        }
    }
}

void
BlockPartition::packGatherStream()
{
    // Per-vertex delta-varint source lists (sorted by sortInLists).
    // gatherOffsets_[v] is the byte offset of v's list.
    gatherOffsets_.resize(static_cast<std::size_t>(nVertices) + 1);
    gatherStream_.clear();
    gatherStream_.reserve(nEdges_ * 2);
    for (VertexId v = 0; v < nVertices; v++) {
        gatherOffsets_[v] = gatherStream_.size();
        codec::encodeDeltaList32(
            {edgeSrc_.data() + inOffsets[v],
             edgeSrc_.data() + inOffsets[v + 1]},
            gatherStream_);
    }
    gatherOffsets_[nVertices] = gatherStream_.size();
    gatherStream_.shrink_to_fit();

    // The packed stream now carries the sources; drop the wide array.
    edgeSrc_.clear();
    edgeSrc_.shrink_to_fit();
}

VertexId
BlockPartition::inEdgeOwner(EdgeId e) const
{
    GRAPHABCD_ASSERT(e < nEdges_, "edge position out of range");
    const auto it = std::upper_bound(inOffsets.begin(), inOffsets.end(), e);
    return static_cast<VertexId>(it - inOffsets.begin()) - 1;
}

VertexId
BlockPartition::edgeSrc(EdgeId e) const
{
    if (!compressed())
        return edgeSrc_[e];
    // Sample/debug path: locate the owning destination vertex, then
    // decode its list up to position e.
    const VertexId v = inEdgeOwner(e);
    const std::uint8_t *p = gatherStream_.data() + gatherOffsets_[v];
    VertexId src = 0;
    for (EdgeId i = inOffsets[v]; i <= e; i++) {
        std::uint32_t d = 0;
        p = codec::decodeVarint32(p, d);
        src = i == inOffsets[v] ? d : src + d;
    }
    return src;
}

VertexId
BlockPartition::edgeDst(EdgeId e) const
{
    return inEdgeOwner(e);
}

BlockEdgesView
BlockPartition::blockEdges(BlockId b, EdgeSliceScratch &scratch) const
{
    const EdgeId begin = edgeBegin(b), end = edgeEnd(b);
    const EdgeId count = end - begin;

    if (!compressed()) {
        gatherBytesMoved_.fetch_add(
            count * (sizeof(VertexId) + sizeof(float)),
            std::memory_order_relaxed);
        return {begin,
                {edgeSrc_.data() + begin, edgeSrc_.data() + end},
                inWeights_.floats().subspan(begin, count)};
    }

    scratch.src.resize(count);
    const std::uint8_t *p =
        gatherStream_.data() + gatherOffsets_[blockBegin(b)];
    EdgeId out = 0;
    for (VertexId v = blockBegin(b); v < blockEnd(b); v++) {
        const EdgeId deg = inOffsets[v + 1] - inOffsets[v];
        VertexId src = 0;
        for (EdgeId i = 0; i < deg; i++) {
            std::uint32_t d = 0;
            p = codec::decodeVarint32(p, d);
            src = i == 0 ? d : src + d;
            scratch.src[out++] = src;
        }
    }

    std::span<const float> wgt;
    if (weightMode() == WeightMode::Float32) {
        wgt = inWeights_.floats().subspan(begin, count);
    } else {
        scratch.wgt.resize(count);
        for (EdgeId i = 0; i < count; i++)
            scratch.wgt[i] = inWeights_.at(begin + i);
        wgt = scratch.wgt;
    }

    gatherBytesMoved_.fetch_add(
        gatherPackedBytes(b) + count * inWeights_.bytesPerEdge(),
        std::memory_order_relaxed);
    return {begin, scratch.src, wgt};
}

} // namespace graphabcd
