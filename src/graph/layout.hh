/**
 * @file
 * Graph layout knobs: physical encoding and vertex order.
 *
 * These two options are orthogonal and combine freely:
 *
 *  - GraphLayout picks the physical encoding of the adjacency arrays
 *    (plain 4-byte ids vs. delta-varint streams + narrow sidecars);
 *  - VertexReorder picks the vertex id assignment the structures are
 *    built in (input order vs. hub-clustered by degree).
 *
 * Both plumb end to end: CLI flags (`--layout`, `--reorder`), serve
 *`LOAD ... layout= reorder=`, GraphRegistry fingerprints, and the
 * bytes/edge accounting that feeds the HARP bandwidth model.
 */

#ifndef GRAPHABCD_GRAPH_LAYOUT_HH
#define GRAPHABCD_GRAPH_LAYOUT_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace graphabcd {

/** Physical encoding of adjacency structures. */
enum class GraphLayout
{
    Plain,       //!< 4-byte source ids, f32 weights
    Compressed,  //!< delta-varint source-id streams, narrowest weights
};

/** How edge weights are stored (compressed layout, `.abcz` files). */
enum class WeightMode : std::uint8_t
{
    Unit,     //!< every weight is 1.0f; nothing stored
    U8,       //!< integral weights in [0, 255]; one byte per edge
    Float32,  //!< arbitrary weights; the plain f32 array is kept
};

/** @return the narrowest WeightMode that holds every weight exactly. */
inline WeightMode
narrowestWeightMode(std::span<const float> weights)
{
    WeightMode mode = WeightMode::Unit;
    for (const float w : weights) {
        if (w == 1.0f)
            continue;
        if (!(w >= 0.0f && w <= 255.0f &&
              w == static_cast<float>(static_cast<std::uint8_t>(w))))
            return WeightMode::Float32;
        mode = WeightMode::U8;
    }
    return mode;
}

/** Vertex id assignment the structures are built in. */
enum class VertexReorder
{
    None,  //!< keep input ids
    Hub,   //!< hub-clustering: stable sort by descending degree bucket
};

/** Bundle passed to builders (BlockPartition, GraphRegistry). */
struct LayoutOptions
{
    GraphLayout layout = GraphLayout::Plain;
    VertexReorder reorder = VertexReorder::None;
};

/** @return canonical flag spelling of a GraphLayout. */
inline const char *
to_string(GraphLayout l)
{
    switch (l) {
      case GraphLayout::Plain:      return "plain";
      case GraphLayout::Compressed: return "compressed";
    }
    return "?";
}

/** @return canonical flag spelling of a VertexReorder. */
inline const char *
to_string(VertexReorder r)
{
    switch (r) {
      case VertexReorder::None: return "none";
      case VertexReorder::Hub:  return "hub";
    }
    return "?";
}

/** Parse a layout flag value; nullopt if unrecognized. */
inline std::optional<GraphLayout>
parseGraphLayout(std::string_view s)
{
    if (s == "plain")
        return GraphLayout::Plain;
    if (s == "compressed")
        return GraphLayout::Compressed;
    return std::nullopt;
}

/** Parse a reorder flag value; nullopt if unrecognized. */
inline std::optional<VertexReorder>
parseVertexReorder(std::string_view s)
{
    if (s == "none")
        return VertexReorder::None;
    if (s == "hub")
        return VertexReorder::Hub;
    return std::nullopt;
}

} // namespace graphabcd

#endif // GRAPHABCD_GRAPH_LAYOUT_HH
