/**
 * @file
 * Destination-sliced block partition — GraphABCD's on-device layout.
 *
 * Per the paper (Fig. 1 and Sec. IV-A2): the vertex array is cut into
 * contiguous blocks (intervals) of `blockSize` vertices, and the adjacency
 * matrix is sliced into chunks by *destination* vertex.  In-coming edges of
 * the same vertex are contiguous in memory, so a PE streaming one block's
 * edge slice performs only sequential reads.
 *
 * There is exactly one copy of the in-edges (paper footnote 4): the CSC
 * arrays GATHER streams.  SCATTER walks the *out-edge adjacency* beside
 * it: each source's out-edges, slot for slot and ascending by
 * destination, as a destination id, the destination's block (the
 * 4-byte sidecar SCATTER activates from) and a weight.  Nothing points
 * from one order into the other; each is read sequentially.  Beside
 * the sidecar each block stores the sorted union of its vertices'
 * destination blocks, a small CSR (numBlocks + 1 offsets of 8 B, then
 * 4 B per distinct (block, destination block) pair: 622,206 entries,
 * 2.5 MB, on the LJ x4 stand-in; 13,953 on LJ x1 compressed + hub),
 * which SCATTER activates in one pass when most of a block's out-edges
 * fire.
 *
 * Two physical layouts (DESIGN.md §11):
 *
 *  - GraphLayout::Plain: 4-byte source ids and f32 weights in CSC
 *    order, input order kept inside each in-list.
 *  - GraphLayout::Compressed: per-vertex in-lists sorted by source and
 *    delta-varint encoded; weights demoted to a Unit (nothing stored)
 *    or U8 column when values allow.  Hot loops decode a block into
 *    caller-owned scratch.
 *
 * The out-edge adjacency is the same in both layouts, its weights in
 * the partition's WeightMode.  Every read charges a bytes-moved tally
 * so bench/micro_kernels can report bytes/edge honestly and feed the
 * ratio to the HARP Bus model.
 *
 * An optional hub-clustering VertexPermutation maps every id as the
 * build reads the edge list, before the boundaries are applied; engines
 * then run entirely in internal ids and callers translate at the API
 * boundary (see permutation.hh for the contract).
 *
 * The build is two (plain) or three (compressed) stable bucketed
 * counting sorts (DESIGN.md §11.2), run as fixed-size tasks on an
 * Executor with the caller taking part; the result does not depend on
 * how many threads ran them.  The arrays those tasks fill in full are
 * UninitVectors, so the tasks, not a zero fill on the calling thread,
 * write each of their pages first.
 */

#ifndef GRAPHABCD_GRAPH_PARTITION_HH
#define GRAPHABCD_GRAPH_PARTITION_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/codec.hh"
#include "graph/edge_list.hh"
#include "graph/layout.hh"
#include "graph/permutation.hh"
#include "graph/types.hh"

namespace graphabcd {

class Executor;

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
 * Per-participant SCATTER scratch: the vertices of the block being
 * scattered whose edge copy changed, pending the block's one activation
 * step (core/state.hh), and the tally of the out-edge adjacency bytes
 * SCATTER reads moved, which BlockPartition::chargeScatterBytes() moves
 * to the partition's shared tally once per block rather than once per
 * vertex.
 */
struct ScatterScratch
{
    std::uint64_t bytes = 0;   //!< read, not yet charged
    /** (vertex, change of its edge copy), in vertex order. */
    std::vector<std::pair<VertexId, double>> scattered;
    EdgeId scatteredEdges = 0;   //!< sum of their out-degrees
};

/**
 * Edge weights in one edge order (CSC or out-edge), stored at a
 * WeightMode: nothing under Unit, one byte per edge under U8, the f32
 * array under Float32.
 */
class WeightColumn
{
  public:
    WeightColumn() = default;

    /** Store `w` at `mode`, which must hold every value exactly
     *  (narrowestWeightMode(w), or wider).  Unit ignores `w`. */
    WeightColumn(UninitVector<float> w, WeightMode mode);

    WeightMode mode() const { return mode_; }

    /** @return weight i; O(1) in every mode. */
    float
    at(EdgeId i) const
    {
        switch (mode_) {
          case WeightMode::Unit:
            return 1.0f;
          case WeightMode::U8:
            return static_cast<float>(u8_[i]);
          case WeightMode::Float32:
            return f32_[i];
        }
        return 1.0f;
    }

    /** @return the stored f32 array (empty unless Float32). */
    std::span<const float> floats() const { return f32_; }

    /** @return bytes stored per weight: 0, 1 or 4. */
    std::uint64_t
    bytesPerEdge() const
    {
        switch (mode_) {
          case WeightMode::Unit:    return 0;
          case WeightMode::U8:      return 1;
          case WeightMode::Float32: return sizeof(float);
        }
        return 0;
    }

  private:
    WeightMode mode_ = WeightMode::Float32;
    UninitVector<float> f32_;
    UninitVector<std::uint8_t> u8_;
};

/**
 * One vertex's out-edges, slot for slot and ascending by destination:
 * destination id, destination block and weight.  The spans point into
 * the partition and live as long as it does.
 */
struct OutEdgesView
{
    std::span<const VertexId> dst;
    std::span<const BlockId> blk;
    const WeightColumn *weights = nullptr;
    EdgeId base = 0;   //!< first slot, in out-edge order

    std::size_t size() const { return dst.size(); }
    bool empty() const { return dst.empty(); }

    float weight(std::size_t i) const { return weights->at(base + i); }
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
    std::uint64_t scatter = 0;  //!< out-edge reads (SCATTER)

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
     * @param exec pool the build's tasks run on; null means
     *        Executor::shared().  Graphs of up to 2^19 edges build on
     *        the calling thread alone.
     */
    BlockPartition(const EdgeList &el, VertexId block_size,
                   LayoutOptions lo = {}, Executor *exec = nullptr);

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
                   EdgeBalanced, LayoutOptions lo = {},
                   Executor *exec = nullptr);

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

    WeightMode weightMode() const { return inWeights_.mode(); }

    /** @return whether every edge weight is finite and non-negative
     *  (what SSSP's clamped relaxation needs), as seen by the build. */
    bool nonNegativeWeights() const { return nonNegativeWeights_; }

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
     * @return destination vertex of in-edge position e: the vertex whose
     * in-edge range holds e, by binary search.  Debug/sample path only.
     */
    VertexId edgeDst(EdgeId e) const;

    /** @return weight of in-edge position e; O(1) in every layout. */
    float edgeWeight(EdgeId e) const { return inWeights_.at(e); }

    /**
     * Decode block b's edge slice.  Plain layout returns spans straight
     * into the partition arrays; compressed decodes into `scratch`.
     * Either way the gather bytes-moved tally is charged with the bytes
     * a PE would stream for this slice.  The view dies with the next
     * use of the same scratch.
     */
    BlockEdgesView blockEdges(BlockId b, EdgeSliceScratch &scratch) const;

    /**
     * v's out-edges: destination, destination block and weight, slot
     * for slot, ascending by destination.  The bytes read are tallied
     * in `scratch`; charge them with chargeScatterBytes().
     */
    OutEdgesView
    outEdges(VertexId v, ScatterScratch &scratch) const
    {
        const EdgeId begin = scatterOffsets[v], end = scatterOffsets[v + 1];
        scratch.bytes += (end - begin) * (sizeof(VertexId) +
                                          sizeof(BlockId) +
                                          outWeights_.bytesPerEdge());
        return {{outDst_.data() + begin, outDst_.data() + end},
                {scatterBlk_.data() + begin, scatterBlk_.data() + end},
                &outWeights_,
                begin};
    }

    /**
     * The destination blocks of v's out-edges alone (outEdges()' `blk`),
     * for SCATTER loops that only activate.  The sidecar bytes read are
     * tallied in `scratch`.
     */
    std::span<const BlockId>
    scatterBlocks(VertexId v, ScatterScratch &scratch) const
    {
        const EdgeId begin = scatterOffsets[v], end = scatterOffsets[v + 1];
        scratch.bytes += (end - begin) * sizeof(BlockId);
        return {scatterBlk_.data() + begin, scatterBlk_.data() + end};
    }

    /**
     * The sorted union of scatterBlocks(v) over block b's vertices:
     * every block b's out-edges reach, each once (empty when b has no
     * out-edges).  SCATTER activates it in one pass when most of b's
     * out-edges scattered.  The bytes read are tallied in `scratch`.
     */
    std::span<const BlockId>
    scatterUnion(BlockId b, ScatterScratch &scratch) const
    {
        const EdgeId begin = unionOffsets_[b], end = unionOffsets_[b + 1];
        scratch.bytes += (end - begin) * sizeof(BlockId);
        return {unionBlk_.data() + begin, unionBlk_.data() + end};
    }

    /** @return out-edges leaving block b's vertices. */
    EdgeId
    blockOutEdgeCount(BlockId b) const
    {
        return scatterOffsets[blockEnd(b)] - scatterOffsets[blockBegin(b)];
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
                fn(e, edgeSrc_[e], edgeWeight(e));
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
               blockEdgeCount(b) *
                   (inWeights_.bytesPerEdge() + value_bytes) +
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
                                   inWeights_.bytesPerEdge() * nEdges_) /
               static_cast<double>(nEdges_);
    }

    /** The compressed layout's packed gather stream: every vertex's
     *  delta-varint source list, in vertex order (empty when plain). */
    std::span<const std::uint8_t>
    gatherStream() const
    {
        return gatherStream_;
    }

    /** Out-edge adjacency bytes per edge: destination id, the
     *  destination-block sidecar and the weight (12.0 for plain). */
    double
    scatterBytesPerEdge() const
    {
        return static_cast<double>(sizeof(VertexId) + sizeof(BlockId) +
                                   outWeights_.bytesPerEdge());
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
    /** Shared tail of both constructors: CSC and out-edge adjacency. */
    void buildFromBoundaries(const EdgeList &el, Executor *exec);

    /** Fill the destination-block sidecar and the per-block unions
     *  from outDst_, on `exec`'s tasks (the shared pool when null). */
    void buildScatterBlocks(Executor *exec);

    /** Build the delta-varint gather stream on `exec`'s tasks (the
     *  shared pool when null), then drop edgeSrc_. */
    void packGatherStream(Executor *exec);

    /** @return the vertex whose in-edge range holds position e. */
    VertexId inEdgeOwner(EdgeId e) const;

    /** Packed gather-stream bytes of block b's slice. */
    std::uint64_t
    gatherPackedBytes(BlockId b) const
    {
        return gatherOffsets_[blockEnd(b)] - gatherOffsets_[blockBegin(b)];
    }

    VertexId nVertices = 0;
    VertexId blockSize_ = 0;
    BlockId nBlocks = 0;
    EdgeId nEdges_ = 0;
    bool nonNegativeWeights_ = true;

    LayoutOptions layoutOpts_;
    VertexPermutation perm_;

    std::vector<VertexId> blockBegins;  //!< size numBlocks+1
    UninitVector<BlockId> vertexBlock;  //!< size V, vertex -> block

    // In-edges, CSC order (GATHER).
    UninitVector<EdgeId> inOffsets;       //!< size V+1, CSC row offsets
    UninitVector<VertexId> edgeSrc_;      //!< size E (plain only)
    UninitVector<std::uint8_t> gatherStream_;   //!< delta-varint src lists
                                                //!< (compressed only)
    UninitVector<std::uint64_t> gatherOffsets_; //!< size V+1, byte offsets
    WeightColumn inWeights_;

    // Out-edges, source order (SCATTER), the same in both layouts.
    UninitVector<EdgeId> scatterOffsets;  //!< size V+1
    UninitVector<VertexId> outDst_;       //!< size E, destination
    UninitVector<BlockId> scatterBlk_;    //!< size E, destination block
    WeightColumn outWeights_;

    // Per block, the sorted distinct blocks its out-edges reach (CSR).
    std::vector<EdgeId> unionOffsets_;    //!< size numBlocks+1
    std::vector<BlockId> unionBlk_;       //!< exact size, no slack

    // Bytes-moved tallies; relaxed — a bench-time observability aid,
    // not a synchronisation point.  mutable so const hot paths charge
    // them; atomics make the class move-only, which is fine: partitions
    // are built in place and shared via shared_ptr.
    mutable std::atomic<std::uint64_t> gatherBytesMoved_{0};
    mutable std::atomic<std::uint64_t> scatterBytesMoved_{0};
};

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_PARTITION_HH
