// SketchIndex tests: exhaustive-mode equivalence with CELF (bit-identical
// seed sets including tie-breaks), byte-identical builds at every thread
// count, and the snapshot-style rejection suite for the on-disk format.

#include "privim/im/sketch/sketch_index.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/im/celf.h"
#include "privim/im/spread_oracle.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

using testing::MakeClique;
using testing::MakeCycle;
using testing::MakeGraph;
using testing::MakePath;
using testing::MakeStar;

std::unique_ptr<SketchIndex> BuildIndex(const Graph& graph,
                                        const SketchIndexOptions& options) {
  Result<std::unique_ptr<SketchIndex>> index = SketchIndex::Build(graph, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

/// A messy unit-weight digraph: hubs, a tail, a cycle and ties galore.
Graph TiedGraph() {
  std::vector<Edge> edges;
  // Two symmetric stars with equal out-degree: classic tie-break bait.
  for (NodeId v = 2; v < 7; ++v) edges.push_back({0, v, 1.0f});
  for (NodeId v = 7; v < 12; ++v) edges.push_back({1, v, 1.0f});
  // A path hanging off one leaf so multi-step spreads differ.
  edges.push_back({6, 12, 1.0f});
  edges.push_back({12, 13, 1.0f});
  edges.push_back({13, 14, 1.0f});
  // A 3-cycle disjoint from the stars.
  edges.push_back({15, 16, 1.0f});
  edges.push_back({16, 17, 1.0f});
  edges.push_back({17, 15, 1.0f});
  return MakeGraph(18, edges);
}

// --- exhaustive mode: exact CELF equivalence ------------------------------

TEST(SketchIndexTest, MatchesCelfOnUnitWeightGraphs) {
  const std::vector<Graph> graphs = {TiedGraph(), MakePath(12), MakeStar(9),
                                     MakeCycle(7), MakeClique(6)};
  for (size_t g = 0; g < graphs.size(); ++g) {
    const Graph& graph = graphs[g];
    for (const int64_t steps : {int64_t{1}, int64_t{2}, int64_t{-1}}) {
      SketchIndexOptions options;
      options.max_steps = steps;
      std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
      ASSERT_NE(index, nullptr);
      EXPECT_TRUE(index->exhaustive());
      EXPECT_EQ(index->num_sketches(), graph.num_nodes());

      DeterministicCoverageOracle oracle(graph, steps);
      for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{5}}) {
        Result<SeedSelectionResult> celf = CelfGreedy(oracle, k);
        ASSERT_TRUE(celf.ok()) << celf.status().ToString();
        Result<SketchTopKResult> sketch = index->TopK(k);
        ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
        EXPECT_EQ(sketch->seeds, celf->seeds)
            << "graph " << g << " steps " << steps << " k " << k;
        EXPECT_EQ(sketch->spread, celf->spread)
            << "graph " << g << " steps " << steps << " k " << k;
      }
    }
  }
}

TEST(SketchIndexTest, ClampsKToNumNodes) {
  const Graph graph = MakePath(4);
  SketchIndexOptions options;
  std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
  Result<SketchTopKResult> result = index->TopK(100);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->seeds.size(), 4u);
  EXPECT_EQ(result->spread, 4.0);
}

TEST(SketchIndexTest, RejectsInvalidOptionsAndK) {
  const Graph graph = MakePath(4);
  SketchIndexOptions options;
  options.num_sketches = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_FALSE(SketchIndex::Build(graph, options).ok());
  options.num_sketches = 100;
  options.max_steps = -2;
  EXPECT_FALSE(options.Validate().ok());
  options.max_steps = 1;
  EXPECT_TRUE(options.Validate().ok());

  std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
  EXPECT_FALSE(index->TopK(0).ok());
  EXPECT_FALSE(index->TopK(-1).ok());
}

// --- sampled mode ---------------------------------------------------------

TEST(SketchIndexTest, SampledModeEstimatesSpread) {
  // Star with weak arcs: the center is still the clear best single seed.
  std::vector<Edge> edges;
  for (NodeId v = 1; v < 16; ++v) edges.push_back({0, v, 0.6f});
  const Graph graph = MakeGraph(16, edges);

  SketchIndexOptions options;
  options.num_sketches = 3000;
  options.max_steps = 1;
  std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
  EXPECT_FALSE(index->exhaustive());
  EXPECT_EQ(index->num_sketches(), 3000);

  Result<SketchTopKResult> result = index->TopK(1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->seeds.size(), 1u);
  EXPECT_EQ(result->seeds[0], 0);
  // Expected spread of {0} is 1 + 15 * 0.6 = 10; the RIS estimate with
  // 3000 sketches lands well within +-2 of it.
  EXPECT_NEAR(result->spread, 10.0, 2.0);
}

TEST(SketchIndexTest, SampledModeSeedChangesThePool) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < 16; ++v) edges.push_back({0, v, 0.5f});
  const Graph graph = MakeGraph(16, edges);
  SketchIndexOptions options;
  options.num_sketches = 64;
  std::unique_ptr<SketchIndex> a = BuildIndex(graph, options);
  options.seed = 43;
  std::unique_ptr<SketchIndex> b = BuildIndex(graph, options);
  EXPECT_NE(a->Encode(), b->Encode());
}

// --- determinism across thread counts ------------------------------------

TEST(SketchIndexTest, BuildIsByteIdenticalAtEveryThreadCount) {
  // Non-unit weights so the sampled (RNG-driven) path is exercised; the
  // exhaustive path shares the same merge and is covered implicitly.
  std::vector<Edge> edges;
  Rng rng(123);
  for (NodeId u = 0; u < 40; ++u) {
    for (int j = 0; j < 4; ++j) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(40));
      if (v != u) edges.push_back({u, v, 0.4f});
    }
  }
  const Graph weighted = MakeGraph(40, edges);
  const Graph unit = TiedGraph();

  SketchIndexOptions options;
  options.num_sketches = 500;
  options.max_steps = 2;

  std::vector<std::string> weighted_encodings;
  std::vector<std::string> unit_encodings;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetGlobalThreadPoolSize(threads);
    weighted_encodings.push_back(BuildIndex(weighted, options)->Encode());
    unit_encodings.push_back(BuildIndex(unit, options)->Encode());
  }
  SetGlobalThreadPoolSize(0);  // restore default concurrency

  EXPECT_EQ(weighted_encodings[0], weighted_encodings[1]);
  EXPECT_EQ(weighted_encodings[0], weighted_encodings[2]);
  EXPECT_EQ(unit_encodings[0], unit_encodings[1]);
  EXPECT_EQ(unit_encodings[0], unit_encodings[2]);
}

// --- sharded top-k sweep --------------------------------------------------

// Hub 0 reaches every shared leaf; hub 1 all but the first 100 of them plus
// 10 leaves of its own; hub 2 only 11 leaves of its own. The posting lists
// of hubs 0 and 1 exceed SketchIndex::kParallelGrain, so selecting hub 0
// marks its list through the chunked parallel path, and hub 1's stale gain
// is recounted through it: to 11, one short of hub 2's 12, so a miscount
// changes the seeds. The selection must be CELF's at every thread count.
TEST(ShardedSweepTest, ParallelSweepMatchesSerialSelection) {
  constexpr NodeId kShared = 65700;
  std::vector<Edge> edges;
  NodeId leaf = 3;
  for (; leaf < kShared + 3; ++leaf) {
    edges.push_back({0, leaf, 1.0f});
    if (leaf >= 103) edges.push_back({1, leaf, 1.0f});
  }
  for (int i = 0; i < 10; ++i) edges.push_back({1, leaf++, 1.0f});
  for (int i = 0; i < 11; ++i) edges.push_back({2, leaf++, 1.0f});
  const Graph graph = MakeGraph(leaf, edges);
  SketchIndexOptions options;
  options.max_steps = 1;
  std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
  ASSERT_GT(kShared - 100 + 10, SketchIndex::kParallelGrain);

  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> celf = CelfGreedy(oracle, 3);
  ASSERT_TRUE(celf.ok()) << celf.status().ToString();
  ASSERT_EQ(celf->seeds, (std::vector<NodeId>{0, 2, 1}));
  int64_t serial_resweeps = -1;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetGlobalThreadPoolSize(threads);
    Result<SketchTopKResult> sweep = index->TopK(3);
    ASSERT_TRUE(sweep.ok()) << threads << " threads";
    EXPECT_EQ(sweep->seeds, celf->seeds) << threads << " threads";
    EXPECT_EQ(sweep->spread, celf->spread) << threads << " threads";
    if (serial_resweeps < 0) serial_resweeps = sweep->resweeps;
    EXPECT_EQ(sweep->resweeps, serial_resweeps) << threads << " threads";
  }
  SetGlobalThreadPoolSize(0);
}

// --- persistence: round trip and the rejection suite ----------------------

TEST(SketchIndexCodecTest, RoundTripRestoresEveryField) {
  const Graph graph = TiedGraph();
  SketchIndexOptions options;
  options.max_steps = 2;
  std::unique_ptr<SketchIndex> index = BuildIndex(graph, options);
  const std::string bytes = index->Encode();

  Result<std::unique_ptr<SketchIndex>> loaded = SketchIndex::Decode(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_nodes(), index->num_nodes());
  EXPECT_EQ((*loaded)->num_sketches(), index->num_sketches());
  EXPECT_EQ((*loaded)->max_steps(), index->max_steps());
  EXPECT_EQ((*loaded)->seed(), index->seed());
  EXPECT_EQ((*loaded)->exhaustive(), index->exhaustive());
  EXPECT_EQ((*loaded)->graph_fingerprint(), index->graph_fingerprint());
  EXPECT_EQ((*loaded)->SizeBytes(), index->SizeBytes());
  // The decoded index answers queries identically.
  Result<SketchTopKResult> a = index->TopK(4);
  Result<SketchTopKResult> b = (*loaded)->TopK(4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  EXPECT_EQ(a->spread, b->spread);
  // And re-encodes byte-identically.
  EXPECT_EQ((*loaded)->Encode(), bytes);
}

TEST(SketchIndexCodecTest, SaveThenLoadRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sketch_roundtrip.privimsx";
  const Graph graph = MakeStar(9);
  std::unique_ptr<SketchIndex> index = BuildIndex(graph, SketchIndexOptions());
  ASSERT_TRUE(index->Save(path).ok());
  Result<std::unique_ptr<SketchIndex>> loaded = SketchIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Encode(), index->Encode());
}

TEST(SketchIndexCodecTest, LoadRejectsMissingFileWithPathInError) {
  const std::string path = ::testing::TempDir() + "/no_such_index.privimsx";
  const Status status = SketchIndex::Load(path).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find(path), std::string::npos);
}

class SketchRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = BuildIndex(TiedGraph(), SketchIndexOptions());
    ASSERT_NE(index_, nullptr);
    bytes_ = index_->Encode();
  }

  static Status DecodeStatus(const std::string& bytes) {
    return SketchIndex::Decode(bytes).status();
  }

  std::unique_ptr<SketchIndex> index_;
  std::string bytes_;
};

TEST_F(SketchRejectionTest, WrongMagicVersionAndCrcGiveDistinctErrors) {
  std::string wrong_magic = bytes_;
  wrong_magic[0] = 'X';
  const Status magic_status = DecodeStatus(wrong_magic);
  EXPECT_EQ(magic_status.code(), StatusCode::kIOError);
  EXPECT_NE(magic_status.message().find("bad magic"), std::string::npos);

  // The version u32 sits right after the 8-byte magic.
  std::string wrong_version = bytes_;
  wrong_version[8] = static_cast<char>(kSketchIndexFormatVersion + 1);
  const Status version_status = DecodeStatus(wrong_version);
  EXPECT_EQ(version_status.code(), StatusCode::kIOError);
  EXPECT_NE(version_status.message().find("version"), std::string::npos);

  // Flip a payload byte: the header still parses, the CRC catches it.
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 1] ^= 0x40;
  const Status crc_status = DecodeStatus(corrupt);
  EXPECT_EQ(crc_status.code(), StatusCode::kIOError);
  EXPECT_NE(crc_status.message().find("CRC mismatch"), std::string::npos);
}

TEST_F(SketchRejectionTest, TruncationGivesDistinctErrors) {
  // Shorter than the 24-byte header: magic + version + size + CRC.
  const Status header_status = DecodeStatus(bytes_.substr(0, 10));
  EXPECT_EQ(header_status.code(), StatusCode::kIOError);
  EXPECT_NE(header_status.message().find("shorter than its header"),
            std::string::npos);

  // Header intact, payload short: the size field flags the mismatch.
  const Status payload_status = DecodeStatus(bytes_.substr(0, bytes_.size() - 3));
  EXPECT_EQ(payload_status.code(), StatusCode::kIOError);
  EXPECT_NE(payload_status.message().find("header promises"), std::string::npos);

  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const size_t keep =
        static_cast<size_t>(fraction * static_cast<double>(bytes_.size()));
    EXPECT_FALSE(SketchIndex::Decode(bytes_.substr(0, keep)).ok())
        << "truncated to " << keep << " bytes";
  }
}

TEST_F(SketchRejectionTest, EveryFlippedByteIsDetected) {
  for (size_t i = 0; i < bytes_.size(); ++i) {
    std::string corrupt = bytes_;
    corrupt[i] ^= 0x40;
    EXPECT_FALSE(SketchIndex::Decode(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST_F(SketchRejectionTest, TrailingGarbageFails) {
  EXPECT_FALSE(SketchIndex::Decode(bytes_ + "extra").ok());
}

TEST_F(SketchRejectionTest, LoadSurfacesThePathOnCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/corrupt_index.privimsx";
  std::string corrupt = bytes_;
  corrupt[corrupt.size() / 2] ^= 0x01;
  ASSERT_TRUE(index_->Save(path).ok());  // prove Save works, then clobber
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);
  }
  const Status status = SketchIndex::Load(path).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find(path), std::string::npos);
}

}  // namespace
}  // namespace privim
