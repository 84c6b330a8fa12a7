/**
 * @file
 * Tests of the compressed / reordered graph layouts (DESIGN.md §11):
 * the varint/delta codec (round trips and adversarial inputs), the
 * packed "ABCZ" loader's corrupt-input contract, equivalence of every
 * engine across the layout x reorder grid, the permutation boundary at
 * the serve layer, fingerprint non-aliasing, and the bytes-moved
 * accounting that feeds the HARP bandwidth model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "core/engine.hh"
#include "graph/codec.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "graph/permutation.hh"
#include "serve/graph_registry.hh"
#include "serve/runner.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "temp_path.hh"

namespace graphabcd {
namespace {

// ---------------------------------------------------------------------
// Codec: round trips

TEST(Codec, Varint32RoundTrip)
{
    const std::uint32_t values[] = {
        0,      1,        127,        128,       129,
        16383,  16384,    2097151,    2097152,   268435455,
        268435456, 0x7fffffff, 0x80000000, std::numeric_limits<std::uint32_t>::max()};
    for (std::uint32_t x : values) {
        std::vector<std::uint8_t> buf;
        codec::putVarint32(buf, x);
        ASSERT_LE(buf.size(), codec::kMaxVarint32Bytes);

        std::uint32_t fast = 0;
        const std::uint8_t *p = codec::decodeVarint32(buf.data(), fast);
        EXPECT_EQ(fast, x);
        EXPECT_EQ(p, buf.data() + buf.size());

        std::uint32_t checked = 0;
        const auto r = codec::getVarint32(
            buf.data(), buf.data() + buf.size(), checked);
        ASSERT_TRUE(r.ok()) << codec::to_string(r.status);
        EXPECT_EQ(checked, x);
        EXPECT_EQ(r.bytes, buf.size());
    }
}

TEST(Codec, MaxValuesUseMaxLengthEncodings)
{
    std::vector<std::uint8_t> buf;
    codec::putVarint32(buf, std::numeric_limits<std::uint32_t>::max());
    EXPECT_EQ(buf.size(), codec::kMaxVarint32Bytes);
}

// ---------------------------------------------------------------------
// Codec: adversarial inputs — must error, never over-read

TEST(Codec, TruncatedStreamsError)
{
    std::vector<std::uint8_t> buf;
    codec::putVarint32(buf, std::numeric_limits<std::uint32_t>::max());
    for (std::size_t len = 0; len < buf.size(); len++) {
        std::uint32_t out = 0;
        const auto r =
            codec::getVarint32(buf.data(), buf.data() + len, out);
        EXPECT_EQ(r.status, codec::VarintStatus::Truncated)
            << "prefix length " << len;
        EXPECT_EQ(r.bytes, 0u);
    }
}

TEST(Codec, OverlongEncodingsRejected)
{
    // 0 padded to two bytes: non-canonical.
    const std::uint8_t padded_zero[] = {0x80, 0x00};
    std::uint32_t out = 0;
    auto r = codec::getVarint32(padded_zero, padded_zero + 2, out);
    EXPECT_EQ(r.status, codec::VarintStatus::Overlong);

    // Six continuation bytes: longer than any legal 32-bit encoding.
    const std::uint8_t too_long[] = {0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
    r = codec::getVarint32(too_long, too_long + 6, out);
    EXPECT_NE(r.status, codec::VarintStatus::Ok);
}

TEST(Codec, OverflowingFinalBytesRejected)
{
    // Five bytes whose fifth carries more than 4 payload bits.
    const std::uint8_t wide32[] = {0xff, 0xff, 0xff, 0xff, 0x10};
    std::uint32_t out = 0;
    const auto r = codec::getVarint32(wide32, wide32 + 5, out);
    EXPECT_EQ(r.status, codec::VarintStatus::Overflow);
}

TEST(Codec, DeltaListRoundTripIncludingEmpty)
{
    const std::vector<std::vector<std::uint32_t>> lists = {
        {},                     // zero-degree vertex: zero bytes
        {0},
        {7, 7, 7},              // duplicates (multi-edges) survive
        {0, 1, 2, 1000000, std::numeric_limits<std::uint32_t>::max()},
    };
    for (const auto &list : lists) {
        std::vector<std::uint8_t> buf;
        codec::encodeDeltaList32(
            std::span<const std::uint32_t>(list), buf);
        if (list.empty()) {
            EXPECT_TRUE(buf.empty());
        }
        std::vector<std::uint32_t> out;
        const auto r = codec::decodeDeltaList32(
            buf.data(), buf.data() + buf.size(), list.size(), out);
        ASSERT_TRUE(r.ok()) << codec::to_string(r.status);
        EXPECT_EQ(out, list);
        EXPECT_EQ(r.bytes, buf.size());
    }
}

TEST(Codec, DeltaChainWrapRejected)
{
    // First id UINT32_MAX then delta 1 would wrap the id space.
    std::vector<std::uint8_t> buf;
    codec::putVarint32(buf, std::numeric_limits<std::uint32_t>::max());
    codec::putVarint32(buf, 1);
    std::vector<std::uint32_t> out;
    const auto r = codec::decodeDeltaList32(
        buf.data(), buf.data() + buf.size(), 2, out);
    EXPECT_EQ(r.status, codec::VarintStatus::Overflow);
}

/**
 * Randomized round trips plus garbage decoding.  The default count
 * keeps plain ctest fast; CI's asan leg reruns with
 * GRAPHABCD_CODEC_FUZZ_ITERS cranked up so the sanitizer sees many
 * random streams per run.
 */
TEST(CodecFuzz, RandomRoundTripsAndGarbageNeverOverread)
{
    std::uint64_t iters = 200;
    if (const char *env = std::getenv("GRAPHABCD_CODEC_FUZZ_ITERS"))
        iters = std::strtoull(env, nullptr, 10);
    Rng rng(0xc0dec);
    for (std::uint64_t it = 0; it < iters; it++) {
        // Sorted random list round trip.
        const std::size_t len = rng.nextBounded(64);
        std::vector<std::uint32_t> list(len);
        std::uint32_t cur = 0;
        for (std::size_t i = 0; i < len; i++) {
            cur += static_cast<std::uint32_t>(rng.nextBounded(1 << 20));
            list[i] = cur;
        }
        std::vector<std::uint8_t> buf;
        codec::encodeDeltaList32(
            std::span<const std::uint32_t>(list), buf);
        std::vector<std::uint32_t> out;
        const auto r = codec::decodeDeltaList32(
            buf.data(), buf.data() + buf.size(), len, out);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(out, list);

        // Garbage bytes: the checked decoder must consume within
        // bounds whatever the content.
        std::vector<std::uint8_t> junk(1 + rng.nextBounded(12));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.nextBounded(256));
        std::uint32_t v32 = 0;
        const auto g = codec::getVarint32(
            junk.data(), junk.data() + junk.size(), v32);
        if (g.ok()) {
            ASSERT_LE(g.bytes, junk.size());
        }
    }
}

// ---------------------------------------------------------------------
// Packed "ABCZ" loader

/** Canonical (src, dst, weight) triples for order-independent compare. */
std::vector<std::tuple<VertexId, VertexId, float>>
canonical(const EdgeList &el)
{
    std::vector<std::tuple<VertexId, VertexId, float>> out;
    out.reserve(el.numEdges());
    for (const Edge &e : el.edges())
        out.emplace_back(e.src, e.dst, e.weight);
    std::sort(out.begin(), out.end());
    return out;
}

/** RMAT with uniform random weights in [1, 16]. */
EdgeList
weightedRmat(VertexId n, EdgeId m, Rng &rng)
{
    RmatOptions opts;
    opts.weighted = true;
    return generateRmat(n, m, rng, opts);
}

TEST(PackedIo, RoundTripsUnitAndWeightedGraphs)
{
    Rng rng(31);
    EdgeList unit = generateRmat(300, 1200, rng);
    EdgeList weighted = weightedRmat(300, 1200, rng);
    for (const EdgeList *el : {&unit, &weighted}) {
        const std::string path = tempPath("roundtrip.abcz");
        saveEdgeListPacked(*el, path);
        const EdgeList back = loadEdgeListPacked(path);
        EXPECT_EQ(back.numVertices(), el->numVertices());
        ASSERT_EQ(back.numEdges(), el->numEdges());
        EXPECT_EQ(canonical(back), canonical(*el));
        std::remove(path.c_str());
    }
}

TEST(PackedIo, PackedIsSmallerThanRawBinary)
{
    Rng rng(33);
    const EdgeList el = generateRmat(1 << 12, 1 << 15, rng);
    const std::string packed = tempPath("size.abcz");
    const std::string raw = tempPath("size.bin");
    saveEdgeListPacked(el, packed);
    saveEdgeListBinary(el, raw);
    const auto size = [](const std::string &p) {
        std::ifstream f(p, std::ios::binary | std::ios::ate);
        return static_cast<std::uint64_t>(f.tellg());
    };
    EXPECT_LT(size(packed) * 2, size(raw));
    std::remove(packed.c_str());
    std::remove(raw.c_str());
}

TEST(PackedIo, CorruptEdgeCountHeaderFailsWithOffsets)
{
    Rng rng(35);
    const EdgeList el = generateRmat(128, 512, rng);
    const std::string path = tempPath("corrupt.abcz");
    saveEdgeListPacked(el, path);
    {
        // The edge-count field sits after magic (4) + version (4);
        // inflate it far past what the payload can hold.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(12);
        const std::uint64_t bogus = 1ull << 40;
        f.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    }
    try {
        loadEdgeListPacked(path);
        FAIL() << "corrupt header must not load";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("header claims"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}

TEST(PackedIo, TruncatedStreamFailsNotOverreads)
{
    Rng rng(37);
    const EdgeList el = generateRmat(128, 512, rng);
    const std::string path = tempPath("truncated.abcz");
    saveEdgeListPacked(el, path);
    std::vector<char> bytes;
    {
        std::ifstream f(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
    }
    {
        // Drop the last 40% of the file (keeps the header intact).
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() * 3 / 5));
    }
    EXPECT_THROW(loadEdgeListPacked(path), FatalError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Permutation

TEST(Permutation, HubClusterIsIdentityOnUniformDegreeGraph)
{
    // Every cycle vertex has total degree 2 — one bucket, stable sort
    // moves nothing, and the permutation must detect it.
    const EdgeList cycle = generateCycle(64);
    EXPECT_TRUE(VertexPermutation::hubCluster(cycle).isIdentity());
    LayoutOptions lo;
    lo.reorder = VertexReorder::Hub;
    const BlockPartition g(cycle, 16, lo);
    EXPECT_TRUE(g.permutation().isIdentity());
}

TEST(Permutation, HubClusterFrontLoadsHubsAndRoundTrips)
{
    // Star graph: vertex 0 is the hub only after the leaves; give the
    // high degree to a late id so the reorder must move it forward.
    EdgeList el(100);
    for (VertexId v = 0; v < 99; v++)
        el.addEdge(v, 99, 1.0f);
    const VertexPermutation perm = VertexPermutation::hubCluster(el);
    ASSERT_FALSE(perm.isIdentity());
    EXPECT_EQ(perm.toInternal(99), 0u);   // the hub leads the layout
    for (VertexId v = 0; v < 100; v++)
        EXPECT_EQ(perm.toOriginal(perm.toInternal(v)), v);

    // valuesToInternal / valuesToOriginal invert each other.
    std::vector<double> original(100);
    for (VertexId v = 0; v < 100; v++)
        original[v] = v * 1.5;
    const auto internal = perm.valuesToInternal(original);
    EXPECT_EQ(internal[0], 99 * 1.5);
    EXPECT_EQ(perm.valuesToOriginal(internal), original);
}

// ---------------------------------------------------------------------
// Engine equivalence across the layout x reorder grid

struct GridCase
{
    const char *engine;
    std::uint32_t threads;
};

const GridCase kEngines[] = {
    {"serial", 1},
    {"async", 1},
    {"async", 4},
    {"accum", 1},
};

const LayoutOptions kLayouts[] = {
    {GraphLayout::Plain, VertexReorder::None},
    {GraphLayout::Plain, VertexReorder::Hub},
    {GraphLayout::Compressed, VertexReorder::None},
    {GraphLayout::Compressed, VertexReorder::Hub},
};

/** Run one algo on one layout/engine cell through the serve runner. */
std::vector<double>
runCell(const BlockPartition &g, const char *algo, VertexId source,
        const GridCase &e)
{
    JobRequest req;
    req.algo = algo;
    req.engine = e.engine;
    req.source = source;
    req.options.blockSize = g.blockSize();
    req.options.tolerance = 1e-12;
    req.options.numThreads = e.threads;
    const RunOutcome out = runAnalyticsJob(g, req);
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_TRUE(out.report.converged);
    return out.values;
}

/**
 * Every engine x layout x reorder cell must land on the same fixpoint
 * as the exact references, with results keyed by ORIGINAL vertex ids.
 * |V| = 97 (prime) so block boundaries never align with any structure
 * of the generator.
 */
TEST(Layout, AllEnginesMatchReferencesAcrossGrid)
{
    Rng rng(43);
    const VertexId n = 97;
    const EdgeList el = weightedRmat(n, 700, rng);
    const EdgeList sym = el.symmetrized();
    const VertexId source = 5;

    const std::vector<double> pr_ref = pagerankReference(el, 0.85);
    const std::vector<double> sssp_ref = dijkstraReference(el, source);
    const std::vector<double> bfs_ref = bfsReference(el, source);
    const std::vector<double> cc_ref = ccReference(sym);

    for (const LayoutOptions &lo : kLayouts) {
        const BlockPartition g(el, 16, lo);
        const BlockPartition gs(sym, 16, lo);
        for (const GridCase &e : kEngines) {
            SCOPED_TRACE(std::string(e.engine) + " t" +
                         std::to_string(e.threads) + " " +
                         to_string(lo.layout) + "/" +
                         to_string(lo.reorder));
            const auto pr = runCell(g, "pr", 0, e);
            ASSERT_EQ(pr.size(), n);
            for (VertexId v = 0; v < n; v++)
                ASSERT_NEAR(pr[v], pr_ref[v], 1e-6) << "vertex " << v;
            const auto sssp = runCell(g, "sssp", source, e);
            for (VertexId v = 0; v < n; v++)
                ASSERT_NEAR(sssp[v], sssp_ref[v], 1e-6)
                    << "vertex " << v;
            const auto bfs = runCell(g, "bfs", source, e);
            for (VertexId v = 0; v < n; v++)
                ASSERT_NEAR(bfs[v], bfs_ref[v], 1e-6) << "vertex " << v;
            const auto cc = runCell(gs, "cc", 0, e);
            ASSERT_EQ(cc.size(), n);
            if (lo.reorder == VertexReorder::None) {
                // Without a reorder the representative is exactly the
                // minimum vertex id in each component.
                for (VertexId v = 0; v < n; v++)
                    ASSERT_NEAR(cc[v], cc_ref[v], 1e-9)
                        << "vertex " << v;
            } else {
                // Under a reorder the representative is whichever
                // member the permutation placed first — still an
                // original id inside the component, and the labeling
                // must induce exactly the reference partition.
                std::map<double, double> label_to_ref;
                for (VertexId v = 0; v < n; v++) {
                    const auto label = static_cast<VertexId>(cc[v]);
                    ASSERT_LT(label, n) << "vertex " << v;
                    ASSERT_EQ(cc_ref[label], cc_ref[v])
                        << "label " << label
                        << " is outside vertex " << v
                        << "'s component";
                    const auto [it, fresh] =
                        label_to_ref.emplace(cc[v], cc_ref[v]);
                    ASSERT_EQ(it->second, cc_ref[v])
                        << "label " << cc[v]
                        << " spans two reference components";
                    (void)fresh;
                }
                const std::set<double> ref_labels(cc_ref.begin(),
                                                  cc_ref.end());
                ASSERT_EQ(label_to_ref.size(), ref_labels.size())
                    << "labeling is finer than the reference partition";
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serve integration: original-id contract and fingerprints

TEST(LayoutServe, HubReorderedResultsKeyedByOriginalIds)
{
    Rng rng(47);
    const EdgeList el = weightedRmat(150, 900, rng);
    GraphRegistry registry;
    LayoutOptions lo;
    lo.layout = GraphLayout::Compressed;
    lo.reorder = VertexReorder::Hub;
    auto g = registry.add("g", el, 32, lo);
    ASSERT_FALSE(g->permutation().isIdentity());

    // SSSP source is an original id; distances come back original-keyed.
    const VertexId source = 3;
    JobRequest req;
    req.algo = "sssp";
    req.engine = "serial";
    req.source = source;
    req.options.blockSize = 32;
    req.options.tolerance = 1e-12;
    const RunOutcome out = runAnalyticsJob(*g, req);
    ASSERT_TRUE(out.ok()) << out.error;
    const std::vector<double> ref = dijkstraReference(el, source);
    ASSERT_EQ(out.values.size(), ref.size());
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(out.values[v], ref[v], 1e-6) << "vertex " << v;

    // A warm start expressed in original ids must be accepted as-is
    // (the boundary translates it) and land on the same fixpoint.
    JobRequest warm = req;
    warm.options.warmStart =
        std::make_shared<const std::vector<double>>(out.values);
    const RunOutcome warmed = runAnalyticsJob(*g, warm);
    ASSERT_TRUE(warmed.ok()) << warmed.error;
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(warmed.values[v], ref[v], 1e-6) << "vertex " << v;
    EXPECT_LE(warmed.report.epochs, out.report.epochs);
}

TEST(LayoutServe, FingerprintsNeverAliasAcrossLayouts)
{
    Rng rng(53);
    const EdgeList el = generateRmat(100, 500, rng);
    GraphRegistry registry;
    std::vector<std::uint64_t> fps;
    for (const LayoutOptions &lo : kLayouts) {
        registry.add("same-name", el, 32, lo);
        fps.push_back(registry.fingerprint("same-name"));
    }
    for (std::size_t i = 0; i < fps.size(); i++)
        for (std::size_t j = i + 1; j < fps.size(); j++)
            EXPECT_NE(fps[i], fps[j]) << "cells " << i << "," << j;

    // And the job-family fingerprint (the warm-start key) inherits the
    // distinction: same request on different layouts never aliases.
    JobRequest req;
    req.algo = "pr";
    req.engine = "serial";
    EXPECT_NE(jobFamilyFingerprint(fps[0], req),
              jobFamilyFingerprint(fps[3], req));
}

// ---------------------------------------------------------------------
// Bytes-moved accounting

TEST(Layout, CompressedMovesAtLeastQuarterFewerBytes)
{
    Rng rng(59);
    const EdgeList el = generateRmat(1 << 11, 1 << 14, rng);
    LayoutOptions plain;
    LayoutOptions comp;
    comp.layout = GraphLayout::Compressed;
    const BlockPartition gp(el, 128, plain);
    const BlockPartition gc(el, 128, comp);

    // Static stored topology bytes per edge: the acceptance ratio the
    // HARP Bus model consumes via HarpConfig::layoutBytesPerEdge.
    EXPECT_LE(gc.gatherBytesPerEdge(),
              0.75 * gp.gatherBytesPerEdge());

    const auto sweep = [](const BlockPartition &g) {
        PageRankProgram prog;
        EngineOptions opt;
        opt.blockSize = g.blockSize();
        opt.tolerance = 1e-8;
        SerialEngine<PageRankProgram> engine(g, prog, opt);
        std::vector<double> values;
        g.resetBytesMoved();
        engine.run(values);
        return g.bytesMoved();
    };
    const BytesMoved mp = sweep(gp);
    const BytesMoved mc = sweep(gc);
    ASSERT_GT(mp.gather, 0u);
    ASSERT_GT(mc.gather, 0u);
    // Moved-byte tallies must mirror the static ratio on the gather
    // stream (the run lengths are identical: same fixpoint problem).
    EXPECT_LE(static_cast<double>(mc.total()),
              0.75 * static_cast<double>(mp.total()));
}

} // namespace
} // namespace graphabcd
