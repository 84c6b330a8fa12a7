#include "graph/io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <unordered_map>

#include "graph/codec.hh"
#include "graph/layout.hh"
#include "support/logging.hh"

namespace graphabcd {

EdgeList
loadEdgeList(const std::string &path, bool densify)
{
    std::ifstream ifs(path);
    if (!ifs)
        fatal("cannot open edge list '", path, "'");

    std::vector<Edge> raw;
    std::uint64_t max_id = 0;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(ifs, line)) {
        line_no++;
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream iss(line);
        std::uint64_t s, d;
        float w = 1.0f;
        if (!(iss >> s >> d))
            fatal("garbled edge at ", path, ":", line_no);
        // VertexId is 32-bit; a wider id must fail loudly here, not
        // silently alias a low vertex after truncation.
        constexpr std::uint64_t max_vertex =
            std::numeric_limits<VertexId>::max();
        if (s > max_vertex || d > max_vertex)
            fatal("vertex id ", std::max(s, d), " at ", path, ":",
                  line_no, " exceeds the 32-bit VertexId range ",
                  "(densify cannot help: ids are truncated before ",
                  "remapping)");
        iss >> w;   // optional third column
        raw.emplace_back(static_cast<VertexId>(s),
                         static_cast<VertexId>(d), w);
        max_id = std::max({max_id, s, d});
    }

    if (!densify) {
        // max_id fits VertexId (checked per line), but the vertex
        // *count* max_id + 1 may not.
        if (max_id == std::numeric_limits<VertexId>::max())
            fatal("'", path, "' needs ", max_id + 1,
                  " vertices, which overflows the 32-bit vertex count; "
                  "load with densify=true");
        EdgeList el(static_cast<VertexId>(max_id) + 1);
        for (const Edge &e : raw)
            el.addEdge(e.src, e.dst, e.weight);
        return el;
    }

    std::unordered_map<VertexId, VertexId> remap;
    remap.reserve(raw.size() * 2);
    auto intern = [&remap](VertexId v) {
        auto [it, fresh] =
            remap.emplace(v, static_cast<VertexId>(remap.size()));
        (void)fresh;
        return it->second;
    };
    for (Edge &e : raw) {
        e.src = intern(e.src);
        e.dst = intern(e.dst);
    }
    EdgeList el(static_cast<VertexId>(remap.size()));
    for (const Edge &e : raw)
        el.addEdge(e.src, e.dst, e.weight);
    return el;
}

namespace {

constexpr char binaryMagic[4] = {'A', 'B', 'C', 'D'};
constexpr std::uint32_t binaryVersion = 1;

} // namespace

void
saveEdgeListBinary(const EdgeList &el, const std::string &path)
{
    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        fatal("cannot open '", path, "' for writing");
    ofs.write(binaryMagic, sizeof(binaryMagic));
    const std::uint32_t version = binaryVersion;
    const std::uint32_t n = el.numVertices();
    const std::uint64_t m = el.numEdges();
    ofs.write(reinterpret_cast<const char *>(&version), sizeof(version));
    ofs.write(reinterpret_cast<const char *>(&n), sizeof(n));
    ofs.write(reinterpret_cast<const char *>(&m), sizeof(m));
    static_assert(sizeof(Edge) == 12, "Edge layout changed: bump the "
                                      "binary format version");
    ofs.write(reinterpret_cast<const char *>(el.edges().data()),
              static_cast<std::streamsize>(m * sizeof(Edge)));
    if (!ofs)
        fatal("short write to '", path, "'");
}

EdgeList
loadEdgeListBinary(const std::string &path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        fatal("cannot open binary edge list '", path, "'");
    char magic[4];
    std::uint32_t version = 0, n = 0;
    std::uint64_t m = 0;
    ifs.read(magic, sizeof(magic));
    ifs.read(reinterpret_cast<char *>(&version), sizeof(version));
    ifs.read(reinterpret_cast<char *>(&n), sizeof(n));
    ifs.read(reinterpret_cast<char *>(&m), sizeof(m));
    if (!ifs || std::memcmp(magic, binaryMagic, sizeof(magic)) != 0)
        fatal("'", path, "' is not a graphabcd binary edge list");
    if (version != binaryVersion)
        fatal("'", path, "' has format version ", version,
              ", expected ", binaryVersion);
    // Validate the edge count against the bytes actually present
    // before allocating: a corrupt or malicious header must fail
    // cleanly here, not OOM the process on the vector below.  The
    // division form avoids overflowing m * sizeof(Edge).
    const std::istream::pos_type data_pos = ifs.tellg();
    ifs.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = ifs.tellg();
    if (data_pos == std::istream::pos_type(-1) ||
        end_pos == std::istream::pos_type(-1) || end_pos < data_pos)
        fatal("cannot size '", path, "'");
    const std::uint64_t remaining =
        static_cast<std::uint64_t>(end_pos - data_pos);
    if (m > remaining / sizeof(Edge))
        fatal("'", path, "' header claims ", m, " edges but only ",
              remaining, " bytes (", remaining / sizeof(Edge),
              " edges) follow the header");
    ifs.seekg(data_pos);
    std::vector<Edge> edges(m);
    ifs.read(reinterpret_cast<char *>(edges.data()),
             static_cast<std::streamsize>(m * sizeof(Edge)));
    if (!ifs)
        fatal("'", path, "' is truncated");
    return EdgeList(n, std::move(edges));
}

namespace {

constexpr char packedMagic[4] = {'A', 'B', 'C', 'Z'};
constexpr std::uint32_t packedVersion = 1;

} // namespace

void
saveEdgeListPacked(const EdgeList &el, const std::string &path)
{
    const VertexId n = el.numVertices();
    const std::uint64_t m = el.numEdges();

    // Group edges by source and sort each neighbor list (weights stay
    // paired), the shape the delta codec needs.
    std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge &e : el.edges())
        offsets[e.src + 1]++;
    for (VertexId v = 0; v < n; v++)
        offsets[v + 1] += offsets[v];
    std::vector<VertexId> nbr(m);
    std::vector<float> wgt(m);
    {
        std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
        for (const Edge &e : el.edges()) {
            const EdgeId pos = cursor[e.src]++;
            nbr[pos] = e.dst;
            wgt[pos] = e.weight;
        }
    }
    std::vector<EdgeId> order(m);
    for (VertexId v = 0; v < n; v++) {
        const EdgeId begin = offsets[v], end = offsets[v + 1];
        if (end - begin < 2)
            continue;
        for (EdgeId i = begin; i < end; i++)
            order[i] = i;
        std::stable_sort(order.begin() + begin, order.begin() + end,
                         [&](EdgeId a, EdgeId b) {
                             return nbr[a] < nbr[b];
                         });
        std::vector<VertexId> na(end - begin);
        std::vector<float> nw(end - begin);
        for (EdgeId i = begin; i < end; i++) {
            na[i - begin] = nbr[order[i]];
            nw[i - begin] = wgt[order[i]];
        }
        std::copy(na.begin(), na.end(), nbr.begin() + begin);
        std::copy(nw.begin(), nw.end(), wgt.begin() + begin);
    }

    const WeightMode mode = narrowestWeightMode(wgt);

    std::vector<std::uint8_t> stream;
    stream.reserve(m * 2);
    for (VertexId v = 0; v < n; v++) {
        const EdgeId begin = offsets[v], end = offsets[v + 1];
        codec::putVarint32(stream,
                           static_cast<std::uint32_t>(end - begin));
        codec::encodeDeltaList32(
            std::span<const VertexId>(nbr.data() + begin,
                                      nbr.data() + end),
            stream);
    }

    std::ofstream ofs(path, std::ios::binary);
    if (!ofs)
        fatal("cannot open '", path, "' for writing");
    ofs.write(packedMagic, sizeof(packedMagic));
    const std::uint32_t version = packedVersion;
    const std::uint32_t nv = n;
    const std::uint8_t mode_byte = static_cast<std::uint8_t>(mode);
    ofs.write(reinterpret_cast<const char *>(&version), sizeof(version));
    ofs.write(reinterpret_cast<const char *>(&nv), sizeof(nv));
    ofs.write(reinterpret_cast<const char *>(&m), sizeof(m));
    ofs.write(reinterpret_cast<const char *>(&mode_byte),
              sizeof(mode_byte));
    ofs.write(reinterpret_cast<const char *>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
    if (mode == WeightMode::U8) {
        std::vector<std::uint8_t> side(m);
        for (std::uint64_t e = 0; e < m; e++)
            side[e] = static_cast<std::uint8_t>(wgt[e]);
        ofs.write(reinterpret_cast<const char *>(side.data()),
                  static_cast<std::streamsize>(side.size()));
    } else if (mode == WeightMode::Float32) {
        ofs.write(reinterpret_cast<const char *>(wgt.data()),
                  static_cast<std::streamsize>(m * sizeof(float)));
    }
    if (!ofs)
        fatal("short write to '", path, "'");
}

EdgeList
loadEdgeListPacked(const std::string &path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        fatal("cannot open packed edge list '", path, "'");
    char magic[4];
    std::uint32_t version = 0, n = 0;
    std::uint64_t m = 0;
    std::uint8_t mode_byte = 0xff;
    ifs.read(magic, sizeof(magic));
    ifs.read(reinterpret_cast<char *>(&version), sizeof(version));
    ifs.read(reinterpret_cast<char *>(&n), sizeof(n));
    ifs.read(reinterpret_cast<char *>(&m), sizeof(m));
    ifs.read(reinterpret_cast<char *>(&mode_byte), sizeof(mode_byte));
    if (!ifs || std::memcmp(magic, packedMagic, sizeof(magic)) != 0)
        fatal("'", path, "' is not a graphabcd packed edge list");
    if (version != packedVersion)
        fatal("'", path, "' has packed format version ", version,
              ", expected ", packedVersion);
    if (mode_byte > static_cast<std::uint8_t>(WeightMode::Float32))
        fatal("'", path, "' has unknown weight mode ",
              static_cast<unsigned>(mode_byte));
    const WeightMode mode = static_cast<WeightMode>(mode_byte);

    // Size the payload before allocating anything proportional to the
    // header counts: a corrupt header must fail cleanly, not OOM.
    const std::istream::pos_type data_pos = ifs.tellg();
    ifs.seekg(0, std::ios::end);
    const std::istream::pos_type end_pos = ifs.tellg();
    if (data_pos == std::istream::pos_type(-1) ||
        end_pos == std::istream::pos_type(-1) || end_pos < data_pos)
        fatal("cannot size '", path, "'");
    const std::uint64_t payload =
        static_cast<std::uint64_t>(end_pos - data_pos);
    // Each edge costs >= 1 stream byte and each vertex >= 1 degree
    // byte, so an absurd header count is caught before decoding (the
    // m <= payload bound first, so weight_bytes below cannot wrap).
    if (m > payload || n > payload)
        fatal("'", path, "' header claims ", n, " vertices / ", m,
              " edges but only ", payload,
              " payload bytes follow the header");
    const std::uint64_t weight_bytes =
        mode == WeightMode::Unit ? 0
        : mode == WeightMode::U8 ? m
                                 : m * sizeof(float);
    if (payload < weight_bytes || payload - weight_bytes < m ||
        payload - weight_bytes - m < n)
        fatal("'", path, "' header claims ", n, " vertices / ", m,
              " edges (", weight_bytes,
              " weight bytes) but only ", payload,
              " payload bytes follow the header");
    const std::uint64_t stream_bytes = payload - weight_bytes;
    ifs.seekg(data_pos);
    std::vector<std::uint8_t> stream(stream_bytes);
    ifs.read(reinterpret_cast<char *>(stream.data()),
             static_cast<std::streamsize>(stream_bytes));
    if (!ifs)
        fatal("'", path, "' is truncated");

    std::vector<Edge> edges;
    edges.reserve(m);
    const std::uint8_t *base = stream.data();
    const std::uint8_t *end = base + stream.size();
    std::size_t off = 0;
    std::uint64_t placed = 0;
    auto offsetOf = [&](std::size_t stream_off) {
        return static_cast<std::uint64_t>(data_pos) + stream_off;
    };
    for (VertexId v = 0; v < n; v++) {
        std::uint32_t deg = 0;
        codec::VarintResult r = codec::getVarint32(base + off, end, deg);
        if (!r.ok())
            fatal("'", path, "': ", codec::to_string(r.status),
                  " in degree of vertex ", v, " at byte ", offsetOf(off));
        off += r.bytes;
        if (placed + deg > m)
            fatal("'", path, "': degree sum exceeds the header's ", m,
                  " edges at vertex ", v, " (byte ", offsetOf(off), ")");
        VertexId prev = 0;
        for (std::uint32_t i = 0; i < deg; i++) {
            std::uint32_t d = 0;
            r = codec::getVarint32(base + off, end, d);
            if (!r.ok())
                fatal("'", path, "': ", codec::to_string(r.status),
                      " in neighbor list of vertex ", v, " at byte ",
                      offsetOf(off));
            off += r.bytes;
            if (i > 0 && d > ~prev)
                fatal("'", path,
                      "': neighbor delta wraps the id space at vertex ",
                      v, " (byte ", offsetOf(off), ")");
            prev = i == 0 ? d : prev + d;
            if (prev >= n)
                fatal("'", path, "': neighbor ", prev, " of vertex ", v,
                      " is out of range [0, ", n, ")");
            edges.emplace_back(v, prev, 1.0f);
        }
        placed += deg;
    }
    if (placed != m)
        fatal("'", path, "': degree sum ", placed,
              " disagrees with the header's ", m, " edges");

    if (mode == WeightMode::U8) {
        std::vector<std::uint8_t> side(m);
        ifs.read(reinterpret_cast<char *>(side.data()),
                 static_cast<std::streamsize>(m));
        if (!ifs)
            fatal("'", path, "' weight sidecar is truncated");
        for (std::uint64_t e = 0; e < m; e++)
            edges[e].weight = static_cast<float>(side[e]);
    } else if (mode == WeightMode::Float32) {
        std::vector<float> side(m);
        ifs.read(reinterpret_cast<char *>(side.data()),
                 static_cast<std::streamsize>(m * sizeof(float)));
        if (!ifs)
            fatal("'", path, "' weight sidecar is truncated");
        for (std::uint64_t e = 0; e < m; e++)
            edges[e].weight = side[e];
    }
    return EdgeList(n, std::move(edges));
}

void
saveEdgeList(const EdgeList &el, const std::string &path)
{
    std::ofstream ofs(path);
    if (!ofs)
        fatal("cannot open '", path, "' for writing");
    ofs << "# graphabcd edge list: " << el.numVertices() << " vertices, "
        << el.numEdges() << " edges\n";
    bool uniform = true;
    for (const Edge &e : el.edges()) {
        if (e.weight != 1.0f) {
            uniform = false;
            break;
        }
    }
    for (const Edge &e : el.edges()) {
        ofs << e.src << ' ' << e.dst;
        if (!uniform)
            ofs << ' ' << e.weight;
        ofs << '\n';
    }
}

EdgeList
loadEdgeListFile(const std::string &path)
{
    if (path.ends_with(".abcz"))
        return loadEdgeListPacked(path);
    if (path.ends_with(".bin"))
        return loadEdgeListBinary(path);
    return loadEdgeList(path);
}

} // namespace graphabcd
