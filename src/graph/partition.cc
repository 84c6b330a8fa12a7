#include "graph/partition.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <ranges>
#include <type_traits>
#include <utility>

#include "runtime/parallel_for.hh"
#include "support/logging.hh"

namespace graphabcd {

namespace {

/** Keys per bucket of the bucketed sort (log2): a bucket's key cursors
 *  and its slice of the output stay in cache while it is finished. */
constexpr unsigned kBucketBits = 12;
constexpr VertexId kBucketKeys = VertexId{1} << kBucketBits;

/** One edge as a sort pass carries it: an endpoint and the weight. */
struct SortItem
{
    VertexId id;
    float w;
};

/** The columns a sort pass reads or writes; `w` is null when the
 *  partition stores no weights (WeightMode::Unit). */
struct SortColumns
{
    VertexId *id;
    float *w;

    void
    store(EdgeId slot, SortItem item) const
    {
        id[slot] = item.id;
        if (w)
            w[slot] = item.w;
    }

    SortItem
    load(EdgeId slot) const
    {
        return {id[slot], w ? w[slot] : 1.0f};
    }
};

/**
 * Stable counting sort of items [0, n) by key in [0, n_keys), after
 * propagation blocking (Beamer et al., IPDPS 2017): random writes are
 * binned into buckets of kBucketKeys keys first, then finished in cache.
 *
 *  1. Each input chunk counts its items per bucket.
 *  2. Each chunk writes its items, in order, to its run of every
 *     bucket's slice: one sequential write stream per bucket, and the
 *     chunk order keeps the sort stable.
 *  3. Each bucket is counting-sorted in cache, which fills `offsets`.
 *
 * read(begin, end, emit) calls emit(key, item) for items begin..end-1
 * in order.  Items land in `out` at their sorted slots; `offsets` gets
 * n_keys + 1 entries, key k's items at [offsets[k], offsets[k + 1]).
 * `keys` (n entries) holds each slot's key between steps 2 and 3.
 */
template <typename Read>
void
bucketSort(Executor *exec, EdgeId n, VertexId n_keys, const Read &read,
           SortColumns out, VertexId *keys, UninitVector<EdgeId> &offsets)
{
    const std::size_t buckets =
        (std::size_t{n_keys} + kBucketKeys - 1) >> kBucketBits;
    const std::size_t chunks = taskCount(n, kSetupGrain);

    // cursor[c * buckets + b]: chunk c's count, then next slot, in b.
    std::vector<EdgeId> cursor(chunks * buckets, 0);
    runTasks(exec, chunks, [&](std::size_t c) {
        EdgeId *count = cursor.data() + c * buckets;
        const auto [begin, end] = taskRange(c, n, kSetupGrain);
        read(begin, end, [count](VertexId key, SortItem) {
            count[key >> kBucketBits]++;
        });
    });

    // Bucket b's slice holds chunk 0's run of it, then chunk 1's, ...
    std::vector<EdgeId> bucketBegin(buckets + 1);
    EdgeId sum = 0;
    for (std::size_t b = 0; b < buckets; b++) {
        bucketBegin[b] = sum;
        for (std::size_t c = 0; c < chunks; c++)
            sum += std::exchange(cursor[c * buckets + b], sum);
    }
    bucketBegin[buckets] = sum;

    runTasks(exec, chunks, [&](std::size_t c) {
        EdgeId *next = cursor.data() + c * buckets;
        const auto [begin, end] = taskRange(c, n, kSetupGrain);
        read(begin, end, [next, out, keys](VertexId key, SortItem item) {
            const EdgeId slot = next[key >> kBucketBits]++;
            out.store(slot, item);
            keys[slot] = key;
        });
    });

    // Step 3 tasks: runs of whole buckets holding about kSetupGrain items.
    std::vector<std::size_t> runBegin{0};
    for (std::size_t b = 1; b < buckets; b++) {
        if (bucketBegin[b] - bucketBegin[runBegin.back()] >= kSetupGrain)
            runBegin.push_back(b);
    }
    runBegin.push_back(buckets);

    offsets.resize(std::size_t{n_keys} + 1);
    runTasks(exec, runBegin.size() - 1, [&](std::size_t r) {
        std::vector<EdgeId> next(kBucketKeys);
        std::vector<SortItem> items;
        for (std::size_t b = runBegin[r]; b < runBegin[r + 1]; b++) {
            const VertexId k0 = static_cast<VertexId>(b << kBucketBits);
            const VertexId width = std::min(kBucketKeys, n_keys - k0);
            const EdgeId lo = bucketBegin[b], hi = bucketBegin[b + 1];
            std::fill_n(next.begin(), width, 0);
            items.resize(hi - lo);
            for (EdgeId s = lo; s < hi; s++) {
                items[s - lo] = out.load(s);
                next[keys[s] - k0]++;
            }
            EdgeId slot = lo;
            for (VertexId k = 0; k < width; k++) {
                offsets[k0 + k] = slot;
                slot += std::exchange(next[k], slot);
            }
            for (EdgeId s = lo; s < hi; s++)
                out.store(next[keys[s] - k0]++, items[s - lo]);
        }
    });
    offsets[n_keys] = n;
}

/**
 * Reader over a sorted order for bucketSort: slot s, owned by key v
 * (offsets[v] <= s < offsets[v + 1]), becomes key cols.id[s] with item
 * {v, cols.w[s]} — the same edge seen from its other endpoint.
 */
auto
readSorted(const UninitVector<EdgeId> &offsets, SortColumns cols)
{
    return [&offsets, cols](EdgeId begin, EdgeId end, auto &&emit) {
        auto v = static_cast<VertexId>(
            std::upper_bound(offsets.begin(), offsets.end(), begin) -
            offsets.begin() - 1);
        for (EdgeId s = begin; s < end; s++) {
            while (offsets[v + 1] <= s)
                v++;
            emit(cols.id[s], SortItem{v, cols.load(s).w});
        }
    };
}

} // namespace

BlockPartition::BlockPartition(const EdgeList &el, VertexId block_size,
                               LayoutOptions lo, Executor *exec)
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

    if (layoutOpts_.reorder == VertexReorder::Hub)
        perm_ = VertexPermutation::hubCluster(el);
    buildFromBoundaries(el, exec);
}

BlockPartition::BlockPartition(const EdgeList &el,
                               EdgeId target_edges_per_block,
                               EdgeBalanced, LayoutOptions lo,
                               Executor *exec)
    : nVertices(el.numVertices()), layoutOpts_(lo)
{
    GRAPHABCD_ASSERT(target_edges_per_block > 0,
                     "edge budget must be positive");
    if (layoutOpts_.reorder == VertexReorder::Hub)
        perm_ = VertexPermutation::hubCluster(el);

    // Greedy contiguous cut over internal-id in-degrees: extend the
    // current block until its in-edge count reaches the target; a
    // single hub vertex may exceed the target on its own (blocks always
    // hold at least one vertex).
    const std::vector<std::uint32_t> ind =
        perm_.valuesToInternal(el.inDegrees());
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

    buildFromBoundaries(el, exec);
}

WeightColumn::WeightColumn(UninitVector<float> w, WeightMode mode)
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
BlockPartition::buildFromBoundaries(const EdgeList &el, Executor *exec)
{
    // Vertex -> block lookup.
    vertexBlock.resize(nVertices);
    for (BlockId b = 0; b < nBlocks; b++) {
        for (VertexId v = blockBegins[b]; v < blockBegins[b + 1]; v++)
            vertexBlock[v] = b;
    }

    const EdgeId m = el.numEdges();
    nEdges_ = m;
    // Compressed layouts store the narrowest weights that hold every
    // value, and carry none through the sorts under Unit.
    const WeightMode mode = compressed()
        ? narrowestWeightMode(el.edges() |
                              std::views::transform(&Edge::weight))
        : WeightMode::Float32;
    const bool weighted = mode != WeightMode::Unit;
    edgeSrc_.resize(m);
    outDst_.resize(m);
    scatterBlk_.resize(m);
    UninitVector<float> wgt(weighted ? m : 0), out_wgt(weighted ? m : 0);
    const SortColumns in{edgeSrc_.data(), weighted ? wgt.data() : nullptr};
    const SortColumns out{outDst_.data(),
                          weighted ? out_wgt.data() : nullptr};

    // CSC by destination: in-coming edges of the same vertex become
    // contiguous, in input order; since blocks are contiguous vertex
    // ranges, each block's edge slice is contiguous too (the paper's
    // layout).  Ids go through the permutation as they are read, and
    // the weights are checked for a negative or non-finite one on the
    // way (branch-free, on the cache lines the ids already brought in).
    const Edge *edges = el.edges().data();
    std::atomic<bool> bad_weight{false};
    auto read_input = [this, edges, &bad_weight](EdgeId begin, EdgeId end,
                                                 auto &&emit) {
        bool bad = false;
        for (EdgeId i = begin; i < end; i++) {
            const Edge &e = edges[i];
            bad |= !(e.weight >= 0.0f &&
                     e.weight <= std::numeric_limits<float>::max());
            emit(perm_.toInternal(e.dst),
                 SortItem{perm_.toInternal(e.src), e.weight});
        }
        if (bad)
            bad_weight.store(true, std::memory_order_relaxed);
    };
    bucketSort(exec, m, nVertices, read_input, in, outDst_.data(),
               inOffsets);
    nonNegativeWeights_ = !bad_weight.load(std::memory_order_relaxed);

    // Out-edge adjacency by source, over the CSC: each source's slots
    // ascend by destination, a destination's multi-edges in CSC order.
    bucketSort(exec, m, nVertices, readSorted(inOffsets, in), out,
               scatterBlk_.data(), scatterOffsets);

    // Compressed layouts delta-encode each in-list, which needs it
    // ascending by source: sorting by destination again, now over the
    // out-edge order, gives exactly that, multi-edges in input order.
    // Plain layouts keep the input-order lists.
    if (compressed())
        bucketSort(exec, m, nVertices, readSorted(scatterOffsets, out), in,
                   scatterBlk_.data(), inOffsets);

    buildScatterBlocks(exec);

    outWeights_ = WeightColumn(std::move(out_wgt), mode);
    inWeights_ = WeightColumn(std::move(wgt), mode);

    if (compressed())
        packGatherStream(exec);
}

void
BlockPartition::buildScatterBlocks(Executor *exec)
{
    // The destination-block sidecar, over the sorts' key scratch, and
    // each block's union of it, in two passes over tasks that are runs
    // of whole blocks of about kSetupGrain out-edges.  A task flags a
    // block's destinations in a byte per block (plain stores, no
    // read-modify-write chain) and collects the flagged blocks in
    // ascending order: by scanning the flags over the block's
    // destination range, or, where that range is much wider than the
    // block's out-edges (tiny blocks of a large partition), by sorting
    // the distinct ones.  Pass 1 also fills the sidecar and only counts
    // each union; a prefix sum turns the counts into offsets, and pass
    // 2 writes every union in place in one exact-size array.
    std::vector<BlockId> taskBegin{0};
    for (BlockId b = 1; b < nBlocks; b++) {
        if (scatterOffsets[blockBegins[b]] -
                scatterOffsets[blockBegins[taskBegin.back()]] >= kSetupGrain)
            taskBegin.push_back(b);
    }
    taskBegin.push_back(nBlocks);

    auto pass = [&](auto emit) {
        runTasks(exec, taskBegin.size() - 1, [&](std::size_t t) {
            std::vector<std::uint8_t> flag_store(nBlocks);
            // Local pointers: a byte store may alias member storage.
            std::uint8_t *flag = flag_store.data();
            const VertexId *dst = outDst_.data();
            const BlockId *block_of = vertexBlock.data();
            BlockId *blk = scatterBlk_.data();
            for (BlockId b = taskBegin[t]; b < taskBegin[t + 1]; b++) {
                const EdgeId begin = scatterOffsets[blockBegin(b)];
                const EdgeId end = scatterOffsets[blockEnd(b)];
                for (EdgeId s = begin; s < end; s++) {
                    if constexpr (!emit)
                        blk[s] = block_of[dst[s]];
                    flag[blk[s]] = 1;
                }
                if (begin == end)
                    continue;
                // Each vertex's sidecar ascends: its ends bound the range.
                BlockId lo = nBlocks, hi = 0;
                for (VertexId v = blockBegin(b); v < blockEnd(b); v++) {
                    if (scatterOffsets[v] < scatterOffsets[v + 1]) {
                        lo = std::min(lo, blk[scatterOffsets[v]]);
                        hi = std::max(hi, blk[scatterOffsets[v + 1] - 1]);
                    }
                }
                BlockId *const out =
                    emit ? unionBlk_.data() + unionOffsets_[b] : nullptr;
                EdgeId count = 0;
                auto take = [&](BlockId d) {
                    if (flag[d]) {
                        if constexpr (emit)
                            out[count] = d;
                        count++;
                        flag[d] = 0;
                    }
                };
                if (hi - lo < 8 * (end - begin)) {
                    for (BlockId d = lo; d <= hi; d++)
                        take(d);
                } else {
                    for (EdgeId s = begin; s < end; s++)
                        take(blk[s]);
                    if constexpr (emit)
                        std::sort(out, out + count);
                }
                if constexpr (!emit)
                    unionOffsets_[b + 1] = count;
            }
        });
    };

    unionOffsets_.assign(std::size_t{nBlocks} + 1, 0);
    pass(std::false_type{});
    std::partial_sum(unionOffsets_.begin(), unionOffsets_.end(),
                     unionOffsets_.begin());
    unionBlk_.resize(unionOffsets_[nBlocks]);
    pass(std::true_type{});
}

void
BlockPartition::packGatherStream(Executor *exec)
{
    // Per-vertex delta-varint source lists (each ascending by source),
    // in two passes over tasks of about kSetupGrain edges: each list's size
    // into gatherOffsets_[v + 1], a prefix sum turning sizes into byte
    // offsets (gatherOffsets_[v] is where v's list starts), then each
    // task encodes its lists in place.  Task t packs the vertices whose
    // lists start in edge chunk t.
    const std::size_t tasks = taskCount(nEdges_, kSetupGrain);
    std::vector<VertexId> first(tasks + 1, nVertices);
    for (std::size_t t = 0; t < tasks; t++) {
        first[t] = static_cast<VertexId>(
            std::lower_bound(inOffsets.begin(),
                             inOffsets.begin() + nVertices,
                             taskRange(t, nEdges_, kSetupGrain).first) -
            inOffsets.begin());
    }
    auto list = [this](VertexId v) {
        return std::span<const VertexId>(edgeSrc_.data() + inOffsets[v],
                                         edgeSrc_.data() + inOffsets[v + 1]);
    };
    gatherOffsets_.resize(static_cast<std::size_t>(nVertices) + 1);
    gatherOffsets_[0] = 0;
    runTasks(exec, tasks, [&](std::size_t t) {
        for (VertexId v = first[t]; v < first[t + 1]; v++)
            gatherOffsets_[v + 1] = codec::deltaList32Bytes(list(v));
    });
    std::partial_sum(gatherOffsets_.begin(), gatherOffsets_.end(),
                     gatherOffsets_.begin());
    gatherStream_.resize(gatherOffsets_[nVertices]);
    runTasks(exec, tasks, [&](std::size_t t) {
        for (VertexId v = first[t]; v < first[t + 1]; v++)
            codec::encodeDeltaList32(list(v),
                                     gatherStream_.data() + gatherOffsets_[v]);
    });

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
