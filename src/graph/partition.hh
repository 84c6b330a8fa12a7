/**
 * @file
 * Destination-sliced block partition — GraphABCD's on-device layout.
 *
 * Per the paper (Fig. 1 and Sec. IV-A2): the vertex array is cut into
 * contiguous blocks (intervals) of `blockSize` vertices, and the adjacency
 * matrix is sliced into chunks by *destination* vertex.  In-coming edges of
 * the same vertex are contiguous in memory, so a PE streaming one block's
 * edge slice performs only sequential reads.  Out-going edge positions are
 * kept in a separate scatter index.  Beside every scatter slot sits the
 * destination block of that position (the 4-byte sidecar), so SCATTER
 * learns which blocks it activates from a sequential read instead of
 * searching for the block that owns each position.
 *
 * There is exactly one copy of the edges (paper footnote 4): the in-edge
 * CSC arrays.  The scatter index stores positions *into* those arrays.
 *
 * Two physical layouts (DESIGN.md §11):
 *
 *  - GraphLayout::Plain: 4-byte src/dst ids, f32 weights, 8-byte scatter
 *    positions — byte-identical to the historical layout.
 *  - GraphLayout::Compressed: per-vertex in-lists sorted by source and
 *    delta-varint encoded; weights demoted to a Unit (nothing stored) or
 *    U8 sidecar when values allow; destination ids narrowed to 16-bit
 *    in-block locals when every block spans ≤ 65536 vertices; scatter
 *    position lists delta-varint encoded.  Hot loops decode a block (or
 *    a vertex's scatter list) into caller-owned scratch; every decode
 *    charges a bytes-moved tally so bench/micro_kernels can report
 *    bytes/edge honestly and feed the ratio to the HARP Bus model.
 *
 * An optional hub-clustering VertexPermutation is applied to the edge
 * list before the boundaries are computed; engines then run entirely in
 * internal ids and callers translate at the API boundary (see
 * permutation.hh for the contract).
 */

#ifndef GRAPHABCD_GRAPH_PARTITION_HH
#define GRAPHABCD_GRAPH_PARTITION_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/codec.hh"
#include "graph/edge_list.hh"
#include "graph/layout.hh"
#include "graph/permutation.hh"
#include "graph/types.hh"

namespace graphabcd {

/** Decode buffer for one block's edge slice; reuse across calls. */
struct EdgeSliceScratch
{
    std::vector<VertexId> src;
    std::vector<float> wgt;
};

/**
 * One block's in-edge slice, positions [base, base + src.size()).
 * Spans point into the partition's arrays (plain layout, and weights
 * under WeightMode::Float32) or into the scratch the view was decoded
 * into; either way they are valid only until the scratch is reused.
 */
struct BlockEdgesView
{
    EdgeId base = 0;
    std::span<const VertexId> src;
    std::span<const float> wgt;

    EdgeId size() const { return static_cast<EdgeId>(src.size()); }
};

/**
 * Decode buffer for one vertex's scatter list; reuse across calls.  It
 * also tallies the scatter-index bytes its decodes read, which
 * BlockPartition::chargeScatterBytes() moves to the partition's shared
 * tally once per block rather than once per vertex.
 */
struct ScatterScratch
{
    std::vector<EdgeId> pos;
    std::uint64_t bytes = 0;   //!< read, not yet charged
};

/**
 * One vertex's scatter list: the ascending CSC positions of its
 * out-edges and, slot for slot, the block owning each position's
 * destination.  Spans point into the partition or the scratch the list
 * was decoded into; valid until that scratch is reused.
 */
struct ScatterView
{
    std::span<const EdgeId> pos;
    std::span<const BlockId> blk;

    std::size_t size() const { return pos.size(); }
    bool empty() const { return pos.empty(); }
};

/** Bundle for call sites that both gather and scatter. */
struct LayoutScratch
{
    EdgeSliceScratch slice;
    ScatterScratch scatter;
};

/** Running bytes-moved tally, split by access pattern. */
struct BytesMoved
{
    std::uint64_t gather = 0;   //!< edge-slice streaming (GATHER)
    std::uint64_t scatter = 0;  //!< scatter-index reads (SCATTER)

    std::uint64_t total() const { return gather + scatter; }
};

/**
 * The blocked graph.  Immutable after construction; the values that
 * change during a run live in the engines (core/state.hh).
 */
class BlockPartition
{
  public:
    BlockPartition() = default;

    /**
     * Build the partition with fixed vertex-count blocks.
     * @param el input edge list.
     * @param block_size vertices per block; |V| (or more) degenerates to
     *        a single block, i.e. full gradient descent / BSP.
     * @param lo physical layout and vertex-order options.
     */
    BlockPartition(const EdgeList &el, VertexId block_size,
                   LayoutOptions lo = {});

    /** Tag selecting the edge-balanced builder. */
    struct EdgeBalanced
    {
    };

    /**
     * Build the partition with *edge-balanced* blocks: contiguous
     * vertex ranges cut so each block's in-edge slice holds roughly
     * `target_edges_per_block` edges.  This evens out PE service times
     * on skewed graphs (the load-imbalance concern of Sec. IV-A3) at
     * the cost of variable block vertex counts.
     */
    BlockPartition(const EdgeList &el, EdgeId target_edges_per_block,
                   EdgeBalanced, LayoutOptions lo = {});

    VertexId numVertices() const { return nVertices; }
    EdgeId numEdges() const { return nEdges_; }

    GraphLayout layout() const { return layoutOpts_.layout; }
    VertexReorder reorder() const { return layoutOpts_.reorder; }

    bool compressed() const
    {
        return layoutOpts_.layout == GraphLayout::Compressed;
    }

    /** Original-id <-> internal-id mapping (identity for reorder=none). */
    const VertexPermutation &permutation() const { return perm_; }

    WeightMode weightMode() const { return weightMode_; }

    /**
     * @return nominal vertices per block (the constructor argument for
     * fixed-size partitions; the mean block size for edge-balanced
     * ones).
     */
    VertexId blockSize() const { return blockSize_; }

    BlockId numBlocks() const { return nBlocks; }

    /** @return the block containing vertex v. */
    BlockId blockOf(VertexId v) const { return vertexBlock[v]; }

    /** @return first vertex of block b. */
    VertexId blockBegin(BlockId b) const { return blockBegins[b]; }

    /** @return one-past-last vertex of block b. */
    VertexId blockEnd(BlockId b) const { return blockBegins[b + 1]; }

    /** @return number of vertices in block b. */
    VertexId
    blockVertexCount(BlockId b) const
    {
        return blockEnd(b) - blockBegin(b);
    }

    /** @return index of the first in-edge of block b's edge slice. */
    EdgeId edgeBegin(BlockId b) const { return inOffsets[blockBegin(b)]; }

    /** @return one-past-last in-edge of block b's edge slice. */
    EdgeId edgeEnd(BlockId b) const { return inOffsets[blockEnd(b)]; }

    /** @return number of in-edges landing in block b. */
    EdgeId
    blockEdgeCount(BlockId b) const
    {
        return edgeEnd(b) - edgeBegin(b);
    }

    /** @return [begin, end) in-edge indices of vertex v. */
    EdgeId inEdgeBegin(VertexId v) const { return inOffsets[v]; }
    EdgeId inEdgeEnd(VertexId v) const { return inOffsets[v + 1]; }

    /**
     * @return source vertex of in-edge position e (CSC order).  O(1)
     * plain; a per-vertex stream decode when compressed — debug/sample
     * path only, hot loops use blockEdges()/forEachInEdge().
     */
    VertexId edgeSrc(EdgeId e) const;

    /**
     * @return destination vertex of in-edge position e.  O(1) except
     * under 16-bit local destinations, where the owning block is found
     * by binary search — scatter loops use edgeDstAt() with the block
     * from their ScatterView instead.
     */
    VertexId edgeDst(EdgeId e) const;

    /** @return weight of in-edge position e; O(1) in every layout. */
    float
    edgeWeight(EdgeId e) const
    {
        switch (weightMode_) {
          case WeightMode::Unit:
            return 1.0f;
          case WeightMode::U8:
            return static_cast<float>(wgt8_[e]);
          case WeightMode::Float32:
            return edgeWeight_[e];
        }
        return 1.0f;
    }

    /**
     * Destination vertex of position e, whose destination block `blk`
     * the caller read from the same slot of a ScatterView: O(1) in
     * every layout.
     */
    VertexId
    edgeDstAt(EdgeId e, BlockId blk) const
    {
        if (!dstLocal16_)
            return edgeDst_[e];
        return blockBegin(blk) + dst16_[e];
    }

    /**
     * Decode block b's edge slice.  Plain layout returns spans straight
     * into the partition arrays; compressed decodes into `scratch`.
     * Either way the gather bytes-moved tally is charged with the bytes
     * a PE would stream for this slice.  The view dies with the next
     * use of the same scratch.
     */
    BlockEdgesView blockEdges(BlockId b, EdgeSliceScratch &scratch) const;

    /**
     * Decode vertex v's scatter list (ascending CSC positions of v's
     * out-edges, with their destination blocks).  Plain layout returns
     * spans into the scatter index; compressed decodes the positions
     * into `scratch`.  The bytes read are tallied in `scratch`; charge
     * them with chargeScatterBytes().
     */
    ScatterView scatterList(VertexId v, ScatterScratch &scratch) const;

    /**
     * The destination blocks of v's out-edges alone (scatterList's
     * `blk`, without decoding positions), for SCATTER loops that only
     * activate.  The sidecar bytes read are tallied in `scratch`.
     */
    std::span<const BlockId>
    scatterBlocks(VertexId v, ScatterScratch &scratch) const
    {
        const EdgeId begin = scatterOffsets[v], end = scatterOffsets[v + 1];
        scratch.bytes += (end - begin) * sizeof(BlockId);
        return {scatterBlk_.data() + begin, scatterBlk_.data() + end};
    }

    /** Move `scratch`'s tally to the scatter bytes-moved counter; one
     *  shared atomic add per call, so callers charge once per block. */
    void
    chargeScatterBytes(ScatterScratch &scratch) const
    {
        if (scratch.bytes == 0)
            return;
        scatterBytesMoved_.fetch_add(scratch.bytes,
                                     std::memory_order_relaxed);
        scratch.bytes = 0;
    }

    /**
     * Visit v's in-edges as fn(position, src, weight), positions
     * ascending.  Works in every layout without scratch; meant for
     * setup and reference paths, so it does not charge bytes-moved.
     */
    template <typename Fn>
    void
    forEachInEdge(VertexId v, Fn &&fn) const
    {
        const EdgeId begin = inOffsets[v], end = inOffsets[v + 1];
        if (!compressed()) {
            for (EdgeId e = begin; e < end; e++)
                fn(e, edgeSrc_[e], edgeWeight_[e]);
            return;
        }
        const std::uint8_t *p = gatherStream_.data() + gatherOffsets_[v];
        VertexId src = 0;
        for (EdgeId e = begin; e < end; e++) {
            std::uint32_t d = 0;
            p = codec::decodeVarint32(p, d);
            src = e == begin ? d : src + d;
            fn(e, src, edgeWeight(e));
        }
    }

    /**
     * @return positions (into the in-edge arrays) of v's out-edges.
     * Plain layout only — compressed callers use scatterList().
     */
    std::span<const EdgeId>
    scatterPositions(VertexId v) const
    {
        assert(!compressed() &&
               "scatterPositions() is plain-layout only; use scatterList()");
        return {scatterPos.data() + scatterOffsets[v],
                scatterPos.data() + scatterOffsets[v + 1]};
    }

    /** @return out-degree of v. */
    std::uint32_t
    outDegree(VertexId v) const
    {
        return static_cast<std::uint32_t>(scatterOffsets[v + 1] -
                                          scatterOffsets[v]);
    }

    /** @return in-degree of v. */
    std::uint32_t
    inDegree(VertexId v) const
    {
        return static_cast<std::uint32_t>(inOffsets[v + 1] - inOffsets[v]);
    }

    /**
     * Bytes a PE streams to process block b: the edge slice (topology
     * at this layout's density + one edge-carried value of
     * `value_bytes`) plus reading and writing the vertex value block.
     * Drives the simulator's DMA sizes.
     */
    std::uint64_t
    blockStreamBytes(BlockId b, std::uint32_t value_bytes) const
    {
        const std::uint64_t verts = blockVertexCount(b);
        if (!compressed()) {
            const std::uint64_t edge_rec =
                sizeof(VertexId) + sizeof(float) + value_bytes;
            return blockEdgeCount(b) * edge_rec +
                   2ULL * verts * value_bytes;
        }
        return gatherPackedBytes(b) +
               blockEdgeCount(b) * (sidecarBytesPerEdge() + value_bytes) +
               2ULL * verts * value_bytes;
    }

    /**
     * Topology bytes streamed per edge in GATHER for this layout
     * (source-id stream + weight sidecar; 8.0 for plain CSC).  This is
     * the measured ratio the HARP Bus model consumes via
     * HarpConfig::layoutBytesPerEdge.
     */
    double
    gatherBytesPerEdge() const
    {
        if (!compressed() || nEdges_ == 0)
            return static_cast<double>(sizeof(VertexId) + sizeof(float));
        return static_cast<double>(gatherStream_.size() +
                                   sidecarBytesPerEdge() * nEdges_) /
               static_cast<double>(nEdges_);
    }

    /** Scatter-index bytes per edge for this layout: positions plus
     *  the 4-byte destination-block sidecar (12.0 for plain). */
    double
    scatterBytesPerEdge() const
    {
        if (!compressed() || nEdges_ == 0)
            return static_cast<double>(sizeof(EdgeId) + sizeof(BlockId));
        return static_cast<double>(scatterStream_.size()) /
                   static_cast<double>(nEdges_) +
               static_cast<double>(sizeof(BlockId));
    }

    /** Snapshot of the bytes-moved tallies (relaxed reads). */
    BytesMoved
    bytesMoved() const
    {
        return {gatherBytesMoved_.load(std::memory_order_relaxed),
                scatterBytesMoved_.load(std::memory_order_relaxed)};
    }

    /** Zero the bytes-moved tallies (bench harness hook). */
    void
    resetBytesMoved() const
    {
        gatherBytesMoved_.store(0, std::memory_order_relaxed);
        scatterBytesMoved_.store(0, std::memory_order_relaxed);
    }

  private:
    /** Shared tail of both constructors: CSC and scatter index. */
    void buildFromBoundaries(const EdgeList &el);

    /** Sort each vertex's in-list by source (compressed pre-pass). */
    void sortInLists();

    /** Build the varint streams and sidecars, then drop wide arrays. */
    void packCompressed();

    /** Binary search for the block owning in-edge position e. */
    BlockId dstBlockSearch(EdgeId e) const;

    /** Packed gather-stream bytes of block b's slice. */
    std::uint64_t
    gatherPackedBytes(BlockId b) const
    {
        return gatherOffsets_[blockEnd(b)] - gatherOffsets_[blockBegin(b)];
    }

    /** Sidecar bytes per edge for the active weight mode. */
    std::uint64_t
    sidecarBytesPerEdge() const
    {
        switch (weightMode_) {
          case WeightMode::Unit:    return 0;
          case WeightMode::U8:      return 1;
          case WeightMode::Float32: return sizeof(float);
        }
        return 0;
    }

    VertexId nVertices = 0;
    VertexId blockSize_ = 0;
    BlockId nBlocks = 0;
    EdgeId nEdges_ = 0;

    LayoutOptions layoutOpts_;
    VertexPermutation perm_;

    std::vector<VertexId> blockBegins;  //!< size numBlocks+1
    std::vector<BlockId> vertexBlock;   //!< size V, vertex -> block

    std::vector<EdgeId> inOffsets;        //!< size V+1, CSC row offsets
    std::vector<VertexId> edgeSrc_;       //!< size E, CSC order (plain)
    std::vector<VertexId> edgeDst_;       //!< size E (plain / !dst16)
    std::vector<float> edgeWeight_;       //!< size E (plain / Float32)

    std::vector<EdgeId> scatterOffsets;   //!< size V+1
    std::vector<EdgeId> scatterPos;       //!< size E, positions (plain)
    std::vector<BlockId> scatterBlk_;     //!< size E, destination block
                                          //!< per scatter slot (both)

    // Compressed-layout arrays (empty under GraphLayout::Plain).
    WeightMode weightMode_ = WeightMode::Float32;
    bool dstLocal16_ = false;
    std::vector<std::uint8_t> gatherStream_;   //!< delta-varint src lists
    std::vector<std::uint64_t> gatherOffsets_; //!< size V+1, byte offsets
    std::vector<std::uint8_t> scatterStream_;  //!< delta-varint positions
    std::vector<std::uint64_t> scatterByteOffsets_; //!< size V+1
    std::vector<std::uint16_t> dst16_;         //!< size E, in-block dst
    std::vector<std::uint8_t> wgt8_;           //!< size E under U8
    std::vector<EdgeId> blockEdgeStarts_;      //!< size numBlocks+1

    // Bytes-moved tallies; relaxed — a bench-time observability aid,
    // not a synchronisation point.  mutable so const hot paths charge
    // them; atomics make the class move-only, which is fine: partitions
    // are built in place and shared via shared_ptr.
    mutable std::atomic<std::uint64_t> gatherBytesMoved_{0};
    mutable std::atomic<std::uint64_t> scatterBytesMoved_{0};
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_PARTITION_HH
