/**
 * @file
 * Fragment topology — the contiguous shard layout of a BlockPartition.
 *
 * A fragment owns a contiguous run of blocks, hence a contiguous vertex
 * range and (because the partition is destination-sliced) a contiguous
 * in-edge slice.  Cuts are placed on block boundaries and balanced by
 * edge count, so each fragment streams roughly the same number of edges
 * per sweep — the load-balance rule GraphScale applies to its
 * vertex-range shards.  The same topology drives both the software
 * FragmentEngine (src/fragment/engine.hh) and the HARP simulator's
 * multi-accelerator affinity (HarpConfig::fragmentAffinity), so the
 * scale-out story is one partitioning, not two.
 *
 * The requested fragment count is clamped to the block count: every
 * realised fragment owns at least one block (a 1-block graph degenerates
 * to one fragment no matter what was asked for).
 */

#ifndef GRAPHABCD_FRAGMENT_TOPOLOGY_HH
#define GRAPHABCD_FRAGMENT_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "graph/partition.hh"
#include "graph/types.hh"

namespace graphabcd {

/** Identifier of a fragment within a topology. */
using FragmentId = std::uint32_t;

/**
 * Immutable shard layout over a BlockPartition.  Cheap to copy; holds
 * only the cut arrays, never graph data.
 */
class FragmentTopology
{
  public:
    FragmentTopology() = default;

    /**
     * Cut `g` into at most `fragments` contiguous, edge-balanced shards.
     * @param fragments requested shard count; clamped to [1, numBlocks]
     *        (and to 1 when the graph has no blocks at all).
     */
    FragmentTopology(const BlockPartition &g, std::uint32_t fragments);

    /** @return realised fragment count (after clamping). */
    FragmentId
    numFragments() const
    {
        return static_cast<FragmentId>(
            blockCuts.empty() ? 1 : blockCuts.size() - 1);
    }

    /** @return first block of fragment f. */
    BlockId blockBegin(FragmentId f) const { return blockCuts[f]; }

    /** @return one-past-last block of fragment f. */
    BlockId blockEnd(FragmentId f) const { return blockCuts[f + 1]; }

    /** @return number of blocks fragment f owns. */
    BlockId
    blockCount(FragmentId f) const
    {
        return blockEnd(f) - blockBegin(f);
    }

    /** @return first vertex of fragment f. */
    VertexId vertexBegin(FragmentId f) const { return vertexCuts[f]; }

    /** @return one-past-last vertex of fragment f. */
    VertexId vertexEnd(FragmentId f) const { return vertexCuts[f + 1]; }

    /** @return first in-edge position of fragment f's slice. */
    EdgeId edgeBegin(FragmentId f) const { return edgeCuts[f]; }

    /** @return one-past-last in-edge position of fragment f's slice. */
    EdgeId edgeEnd(FragmentId f) const { return edgeCuts[f + 1]; }

    /** @return the fragment owning block b. */
    FragmentId fragmentOfBlock(BlockId b) const;

    /** @return the fragment owning vertex v. */
    FragmentId fragmentOfVertex(VertexId v) const;

    /**
     * @return the fragment whose in-edge slice contains CSC position
     * `pos` — i.e. the shard SCATTER must reach to update that edge's
     * carried value.
     */
    FragmentId fragmentOfEdge(EdgeId pos) const;

  private:
    std::vector<BlockId> blockCuts;    //!< size numFragments+1
    std::vector<VertexId> vertexCuts;  //!< size numFragments+1
    std::vector<EdgeId> edgeCuts;      //!< size numFragments+1
};

} // namespace graphabcd

#endif // GRAPHABCD_FRAGMENT_TOPOLOGY_HH
