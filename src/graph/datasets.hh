/**
 * @file
 * Named synthetic stand-ins for the paper's evaluation graphs (Table I).
 *
 * The original datasets (WikiTalk, Pokec, LiveJournal, Twitter, SAC18,
 * MovieLens, Netflix) are not redistributable here, so each is replaced
 * by a generator-backed equivalent that preserves the properties the
 * evaluation depends on: the |E|/|V| ratio, power-law degree skew for the
 * social graphs (RMAT) and Zipf item popularity for the rating graphs.
 * Sizes default to 1/divisor of the paper's to fit a laptop; pass a
 * larger `scale` to approach the original sizes.
 */

#ifndef GRAPHABCD_GRAPH_DATASETS_HH
#define GRAPHABCD_GRAPH_DATASETS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hh"

namespace graphabcd {

/** Catalog entry describing one paper dataset and its stand-in. */
struct DatasetInfo
{
    std::string key;          //!< short name used on the command line
    std::string paperName;    //!< name used in the paper's Table I
    std::uint64_t paperVertices;
    std::uint64_t paperEdges;
    bool bipartite;           //!< rating graph (CF) vs social graph
    std::uint64_t paperUsers; //!< bipartite only
    std::uint64_t paperItems; //!< bipartite only
    std::uint64_t divisor;    //!< default shrink factor at scale = 1
};

/** @return the seven Table I datasets in paper order. */
const std::vector<DatasetInfo> &datasetCatalog();

/** @return catalog entry for `key`; fatal() when unknown. */
const DatasetInfo &datasetInfo(const std::string &key);

/** A materialised dataset. */
struct Dataset
{
    DatasetInfo info;
    EdgeList graph;       //!< directed, weighted (weights in [1, 16])
    VertexId users = 0;   //!< bipartite only
    VertexId items = 0;   //!< bipartite only
    double scale = 1.0;   //!< realised fraction of the paper size

    VertexId numVertices() const { return graph.numVertices(); }
    EdgeId numEdges() const { return graph.numEdges(); }
};

/**
 * Materialise the stand-in for a Table I graph.
 * @param key one of "WT", "PS", "LJ", "TW", "SAC", "MOL", "NF"
 *        (case-insensitive).
 * @param scale multiplies the default (paper / divisor) size; scale ==
 *        divisor reproduces the paper's node/edge counts.
 * @throws FatalError naming the scale when it is not positive, or its
 *         vertex or edge count does not fit VertexId/EdgeId.
 * @param seed generator seed; equal seeds give identical graphs.
 */
Dataset makeDataset(const std::string &key, double scale = 1.0,
                    std::uint64_t seed = 42);

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_DATASETS_HH
