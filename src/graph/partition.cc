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
    edgeDst_.resize(m);
    edgeWeight_.resize(m);

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
            edgeDst_[pos] = e.dst;
            edgeWeight_[pos] = e.weight;
        }
    }

    // Compressed layouts delta-encode each vertex's source list, which
    // requires it sorted.  This must happen before the scatter index is
    // built so positions and sources stay consistent; plain layouts
    // keep the historical input-order lists byte for byte.
    if (compressed())
        sortInLists();

    // Scatter index: group CSC positions by their *source* vertex with a
    // second counting sort, so SCATTER can enumerate where to copy a
    // vertex's new value.
    scatterOffsets.assign(static_cast<std::size_t>(nVertices) + 1, 0);
    for (EdgeId pos = 0; pos < m; pos++)
        scatterOffsets[edgeSrc_[pos] + 1]++;
    for (VertexId v = 0; v < nVertices; v++)
        scatterOffsets[v + 1] += scatterOffsets[v];

    scatterPos.resize(m);
    {
        std::vector<EdgeId> cursor(scatterOffsets.begin(),
                                   scatterOffsets.end() - 1);
        for (EdgeId pos = 0; pos < m; pos++)
            scatterPos[cursor[edgeSrc_[pos]]++] = pos;
    }

    // Destination-block sidecar, slot for slot with the scatter index:
    // SCATTER reads the blocks it activates sequentially beside the
    // positions instead of searching for each position's block.
    scatterBlk_.resize(m);
    for (EdgeId i = 0; i < m; i++)
        scatterBlk_[i] = vertexBlock[edgeDst_[scatterPos[i]]];

    blockEdgeStarts_.resize(static_cast<std::size_t>(nBlocks) + 1);
    for (BlockId b = 0; b < nBlocks; b++)
        blockEdgeStarts_[b] = edgeBegin(b);
    blockEdgeStarts_[nBlocks] = m;

    if (compressed())
        packCompressed();
    else
        weightMode_ = WeightMode::Float32;
}

void
BlockPartition::sortInLists()
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
            seg.emplace_back(edgeSrc_[e], edgeWeight_[e]);
        std::stable_sort(seg.begin(), seg.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (EdgeId e = begin; e < end; e++) {
            edgeSrc_[e] = seg[e - begin].first;
            edgeWeight_[e] = seg[e - begin].second;
        }
    }
}

void
BlockPartition::packCompressed()
{
    const EdgeId m = nEdges_;

    // Weight sidecar mode: Unit when every weight is exactly 1.0f (the
    // common unweighted case — zero bytes), U8 when all weights are
    // integral in [0, 255] (generated SSSP/CF-style small ratings),
    // Float32 otherwise (the wide array is simply kept).
    weightMode_ = WeightMode::Unit;
    for (EdgeId e = 0; e < m && weightMode_ != WeightMode::Float32; e++) {
        const float w = edgeWeight_[e];
        if (w == 1.0f)
            continue;
        if (w >= 0.0f && w <= 255.0f &&
            w == static_cast<float>(static_cast<std::uint8_t>(w))) {
            weightMode_ = WeightMode::U8;
            continue;
        }
        weightMode_ = WeightMode::Float32;
    }
    if (weightMode_ == WeightMode::U8) {
        wgt8_.resize(m);
        for (EdgeId e = 0; e < m; e++)
            wgt8_[e] = static_cast<std::uint8_t>(edgeWeight_[e]);
    }
    if (weightMode_ != WeightMode::Float32) {
        edgeWeight_.clear();
        edgeWeight_.shrink_to_fit();
    }

    // Gather streams: per-vertex delta-varint source lists (sorted by
    // sortInLists).  gatherOffsets_[v] is the byte offset of v's list.
    gatherOffsets_.resize(static_cast<std::size_t>(nVertices) + 1);
    gatherStream_.clear();
    gatherStream_.reserve(m * 2);
    for (VertexId v = 0; v < nVertices; v++) {
        gatherOffsets_[v] = gatherStream_.size();
        codec::encodeDeltaList32(
            {edgeSrc_.data() + inOffsets[v],
             edgeSrc_.data() + inOffsets[v + 1]},
            gatherStream_);
    }
    gatherOffsets_[nVertices] = gatherStream_.size();
    gatherStream_.shrink_to_fit();

    // Scatter streams: per-vertex delta-varint position lists.  The
    // counting sort above produced them ascending, so deltas are
    // non-negative and the common in-block runs are 1-byte.
    scatterByteOffsets_.resize(static_cast<std::size_t>(nVertices) + 1);
    scatterStream_.clear();
    scatterStream_.reserve(m * 2);
    for (VertexId v = 0; v < nVertices; v++) {
        scatterByteOffsets_[v] = scatterStream_.size();
        codec::encodeDeltaList64(
            {scatterPos.data() + scatterOffsets[v],
             scatterPos.data() + scatterOffsets[v + 1]},
            scatterStream_);
    }
    scatterByteOffsets_[nVertices] = scatterStream_.size();
    scatterStream_.shrink_to_fit();

    // 16-bit in-block destination ids, possible iff every block spans
    // at most 2^16 vertices (the default block sizes are far smaller).
    dstLocal16_ = nBlocks > 0;
    for (BlockId b = 0; b < nBlocks; b++) {
        if (blockVertexCount(b) > 65536) {
            dstLocal16_ = false;
            break;
        }
    }
    if (dstLocal16_) {
        dst16_.resize(m);
        for (EdgeId e = 0; e < m; e++) {
            const VertexId d = edgeDst_[e];
            dst16_[e] = static_cast<std::uint16_t>(
                d - blockBegin(vertexBlock[d]));
        }
        edgeDst_.clear();
        edgeDst_.shrink_to_fit();
    }

    // The packed streams now carry the topology; drop the wide arrays.
    edgeSrc_.clear();
    edgeSrc_.shrink_to_fit();
    scatterPos.clear();
    scatterPos.shrink_to_fit();
}

VertexId
BlockPartition::edgeSrc(EdgeId e) const
{
    if (!compressed())
        return edgeSrc_[e];
    // Sample/debug path: locate the owning destination vertex, then
    // decode its list up to position e.
    const auto it = std::upper_bound(inOffsets.begin(), inOffsets.end(), e);
    const VertexId v = static_cast<VertexId>(it - inOffsets.begin()) - 1;
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
    if (!dstLocal16_)
        return edgeDst_[e];
    const BlockId b = dstBlockSearch(e);
    return blockBegin(b) + dst16_[e];
}

BlockId
BlockPartition::dstBlockSearch(EdgeId e) const
{
    GRAPHABCD_ASSERT(e < nEdges_, "edge position out of range");
    const auto it = std::upper_bound(blockEdgeStarts_.begin(),
                                     blockEdgeStarts_.end(), e);
    return static_cast<BlockId>(it - blockEdgeStarts_.begin()) - 1;
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
                {edgeWeight_.data() + begin, edgeWeight_.data() + end}};
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
    switch (weightMode_) {
      case WeightMode::Unit:
        scratch.wgt.assign(count, 1.0f);
        wgt = scratch.wgt;
        break;
      case WeightMode::U8:
        scratch.wgt.resize(count);
        for (EdgeId i = 0; i < count; i++)
            scratch.wgt[i] = static_cast<float>(wgt8_[begin + i]);
        wgt = scratch.wgt;
        break;
      case WeightMode::Float32:
        wgt = {edgeWeight_.data() + begin, edgeWeight_.data() + end};
        break;
    }

    gatherBytesMoved_.fetch_add(
        gatherPackedBytes(b) + count * sidecarBytesPerEdge(),
        std::memory_order_relaxed);
    return {begin, scratch.src, wgt};
}

ScatterView
BlockPartition::scatterList(VertexId v, ScatterScratch &scratch) const
{
    const std::span<const BlockId> blk = scatterBlocks(v, scratch);
    const EdgeId deg = blk.size();
    if (!compressed()) {
        scratch.bytes += deg * sizeof(EdgeId);
        return {{scatterPos.data() + scatterOffsets[v], deg}, blk};
    }

    scratch.pos.resize(deg);
    const std::uint8_t *p =
        scatterStream_.data() + scatterByteOffsets_[v];
    EdgeId pos = 0;
    for (EdgeId i = 0; i < deg; i++) {
        std::uint64_t d = 0;
        p = codec::decodeVarint64(p, d);
        pos = i == 0 ? d : pos + d;
        scratch.pos[i] = pos;
    }
    scratch.bytes += scatterByteOffsets_[v + 1] - scatterByteOffsets_[v];
    return {scratch.pos, blk};
}

} // namespace graphabcd
