#include "graph/datasets.hh"

#include <algorithm>
#include <cctype>
#include <limits>

#include "graph/generators.hh"
#include "support/logging.hh"

namespace graphabcd {

const std::vector<DatasetInfo> &
datasetCatalog()
{
    static const std::vector<DatasetInfo> catalog = {
        // key, paper name, |V|, |E|, bipartite, users, items, divisor
        {"WT", "Wikipedia Talk", 2390000, 5020000, false, 0, 0, 8},
        {"PS", "Pokec", 1630000, 30620000, false, 0, 0, 24},
        {"LJ", "LiveJournal", 4850000, 68990000, false, 0, 0, 48},
        {"TW", "Twitter", 41650000, 1470000000, false, 0, 0, 768},
        {"SAC", "SAC18", 154000, 10000000, true, 105000, 49000, 8},
        {"MOL", "MovieLens", 337000, 27750000, true, 283000, 54000, 24},
        {"NF", "Netflix", 497000, 100480000, true, 480000, 17000, 64},
    };
    return catalog;
}

const DatasetInfo &
datasetInfo(const std::string &key)
{
    std::string upper = key;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    for (const DatasetInfo &info : datasetCatalog()) {
        if (info.key == upper)
            return info;
    }
    fatal("unknown dataset '", key, "'; valid keys: WT PS LJ TW SAC MOL NF");
}

Dataset
makeDataset(const std::string &key, double scale, std::uint64_t seed)
{
    const DatasetInfo &info = datasetInfo(key);
    const double fraction = scale / static_cast<double>(info.divisor);
    // Both counts must fit their id types: converting an out-of-range
    // double to an integer is undefined.
    const double vertices =
        static_cast<double>(info.paperVertices) * fraction;
    const double edges = static_cast<double>(info.paperEdges) * fraction;
    if (!(scale > 0.0) ||
        !(vertices < static_cast<double>(invalidVertex) + 1.0) ||
        !(edges < static_cast<double>(
                      std::numeric_limits<EdgeId>::max()) + 1.0))
        fatal("dataset scale ", scale, " is out of range: ", info.key,
              " needs a positive scale that gives it fewer than 2^32 "
              "vertices and 2^64 edges");
    Rng rng(seed ^ (std::hash<std::string>{}(info.key) | 1));

    Dataset ds;
    ds.info = info;
    ds.scale = fraction;

    auto scaled = [fraction](std::uint64_t paper_value) {
        auto v = static_cast<std::uint64_t>(
            static_cast<double>(paper_value) * fraction);
        return std::max<std::uint64_t>(v, 16);
    };

    if (!info.bipartite) {
        auto n = static_cast<VertexId>(scaled(info.paperVertices));
        EdgeId m = scaled(info.paperEdges);
        RmatOptions opts;
        opts.weighted = true;   // SSSP needs weights; PR ignores them
        ds.graph = generateRmat(n, m, rng, opts);
    } else {
        auto users = static_cast<VertexId>(scaled(info.paperUsers));
        auto items = static_cast<VertexId>(scaled(info.paperItems));
        EdgeId ratings = scaled(info.paperEdges);
        BipartiteGraph bg = generateRatings(users, items, ratings, rng);
        ds.graph = std::move(bg.graph);
        ds.users = bg.users;
        ds.items = bg.items;
    }
    return ds;
}

} // namespace graphabcd
