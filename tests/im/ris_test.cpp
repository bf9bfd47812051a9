// RIS tests: the shared reverse-IC walk, the solver's quality, and the
// same bytes as the stand-alone solver it replaced
// (testing/reference_ris.h).

#include "privim/im/ris.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/thread_pool.h"
#include "privim/graph/generators.h"
#include "privim/im/celf.h"
#include "privim/im/sketch/sketch_index.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_ris.h"

namespace privim {
namespace {

using testing::MakeGraph;
using testing::MakePath;
using testing::MakeStar;

/// One RR set through the shared walk, from a target drawn from `rng`.
std::vector<NodeId> SampleRrSet(const Graph& graph, int64_t max_steps,
                                Rng* rng) {
  ReverseReachScratch scratch(graph.num_nodes());
  std::vector<NodeId> rr_set;
  const NodeId target = static_cast<NodeId>(
      rng->NextBounded(static_cast<uint64_t>(graph.num_nodes())));
  AppendReverseReachable(graph, target, max_steps, rng, &scratch, &rr_set);
  return rr_set;
}

TEST(RisOptionsTest, Validation) {
  RisOptions options;
  options.num_rr_sets = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(RisOptions().Validate().ok());
  // Set ids are 32-bit: a pool one past INT32_MAX is refused up front.
  options.num_rr_sets = int64_t{std::numeric_limits<int32_t>::max()} + 1;
  const Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_rr_sets"), std::string::npos);
  options.num_rr_sets = std::numeric_limits<int32_t>::max();
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SampleReverseReachableSetTest, UnitWeightsReachAllAncestors) {
  // Path 0 -> 1 -> 2 -> 3 with w = 1: the RR set of a target is exactly its
  // ancestor chain (including itself).
  const Graph path = MakePath(4, 1.0f);
  Rng rng(1);
  bool saw_full_chain = false;
  for (int t = 0; t < 50; ++t) {
    const std::vector<NodeId> rr = SampleRrSet(path, -1, &rng);
    ASSERT_FALSE(rr.empty());
    const NodeId target = rr[0];
    EXPECT_EQ(static_cast<int64_t>(rr.size()), target + 1);
    for (NodeId v : rr) EXPECT_LE(v, target);
    saw_full_chain |= (rr.size() == 4u);
  }
  EXPECT_TRUE(saw_full_chain);
}

TEST(SampleReverseReachableSetTest, ZeroWeightsOnlyTarget) {
  const Graph path = MakePath(5, 0.0f);
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(SampleRrSet(path, -1, &rng).size(), 1u);
  }
}

TEST(SampleReverseReachableSetTest, StepBoundTruncates) {
  const Graph path = MakePath(10, 1.0f);
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    const std::vector<NodeId> rr = SampleRrSet(path, 2, &rng);
    EXPECT_LE(rr.size(), 3u);  // target + at most 2 reverse hops
  }
}

TEST(RisSeedSelectionTest, StarCenterWinsAtKOne) {
  const Graph star = MakeStar(30);
  RisOptions options;
  options.num_rr_sets = 2000;
  Rng rng(4);
  Result<RisResult> result = RisSeedSelection(star, 1, options, &rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->seeds.size(), 1u);
  EXPECT_EQ(result->seeds[0], 0);
  // Center covers every RR set (every target is reachable from it).
  EXPECT_NEAR(result->estimated_spread, 30.0, 1e-9);
}

TEST(RisSeedSelectionTest, SeedsDistinctAndInRange) {
  Rng graph_rng(5);
  Result<Graph> graph = BarabasiAlbert(200, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  const Graph unit = WithUniformWeights(graph.value(), 1.0f);
  RisOptions options;
  options.num_rr_sets = 500;
  options.max_steps = 1;
  Rng rng(6);
  Result<RisResult> result = RisSeedSelection(unit, 15, options, &rng);
  ASSERT_TRUE(result.ok());
  std::set<NodeId> unique(result->seeds.begin(), result->seeds.end());
  EXPECT_EQ(unique.size(), result->seeds.size());
  for (NodeId v : result->seeds) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 200);
  }
}

TEST(RisSeedSelectionTest, NearCelfQualityOnUnitWeightCoverage) {
  // With w = 1, j = 1: both CELF and RIS(max_steps=1) solve max coverage;
  // with enough RR sets RIS must land within a few percent of CELF.
  Rng graph_rng(7);
  Result<Graph> graph = BarabasiAlbert(300, 4, &graph_rng);
  ASSERT_TRUE(graph.ok());
  const Graph unit = WithUniformWeights(graph.value(), 1.0f);

  DeterministicCoverageOracle oracle(unit, 1);
  Result<SeedSelectionResult> celf = CelfGreedy(oracle, 10);
  ASSERT_TRUE(celf.ok());

  RisOptions options;
  options.num_rr_sets = 8000;
  options.max_steps = 1;
  Rng rng(8);
  Result<RisResult> ris = RisSeedSelection(unit, 10, options, &rng);
  ASSERT_TRUE(ris.ok());
  const double ris_true_spread = oracle.Spread(ris->seeds);
  EXPECT_GT(ris_true_spread, 0.9 * celf->spread);
  // The internal estimate should also be close to the true spread.
  EXPECT_NEAR(ris->estimated_spread, ris_true_spread,
              0.15 * ris_true_spread);
}

TEST(RisSeedSelectionTest, EstimateTracksMonteCarloOnWeightedGraph) {
  Rng graph_rng(9);
  Result<Graph> base = BarabasiAlbert(200, 4, &graph_rng);
  ASSERT_TRUE(base.ok());
  const Graph weighted = WithWeightedCascadeWeights(base.value());
  RisOptions options;
  options.num_rr_sets = 6000;
  Rng rng(10);
  Result<RisResult> ris = RisSeedSelection(weighted, 8, options, &rng);
  ASSERT_TRUE(ris.ok());

  IcOptions mc;
  mc.num_simulations = 4000;
  mc.parallel = false;
  Rng mc_rng(11);
  const double mc_spread =
      EstimateIcSpread(weighted, ris->seeds, mc, &mc_rng);
  EXPECT_NEAR(ris->estimated_spread, mc_spread, 0.15 * mc_spread + 1.0);
}

TEST(RisSeedSelectionTest, KClampedAndErrors) {
  const Graph star = MakeStar(5);
  RisOptions options;
  options.num_rr_sets = 100;
  Rng rng(12);
  Result<RisResult> result = RisSeedSelection(star, 50, options, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds.size(), 5u);
  EXPECT_FALSE(RisSeedSelection(star, 0, options, &rng).ok());
}

TEST(RisSeedSelectionTest, DeterministicInSeed) {
  Rng graph_rng(13);
  Result<Graph> graph = BarabasiAlbert(150, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  const Graph unit = WithUniformWeights(graph.value(), 1.0f);
  RisOptions options;
  options.num_rr_sets = 400;
  Rng rng1(14), rng2(14);
  Result<RisResult> a = RisSeedSelection(unit, 5, options, &rng1);
  Result<RisResult> b = RisSeedSelection(unit, 5, options, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  EXPECT_DOUBLE_EQ(a->estimated_spread, b->estimated_spread);
}

// --- same bytes as the stand-alone solver --------------------------------

/// Runs the library and the reference from equal Rngs and demands the same
/// seeds, the same spread bits, the same set count and the same Rng state.
void ExpectSameBytesAsReference(const Graph& graph, int64_t k,
                                const RisOptions& options, uint64_t seed) {
  Rng rng(seed);
  Rng reference_rng(seed);
  Result<RisResult> result = RisSeedSelection(graph, k, options, &rng);
  Result<RisResult> reference =
      testing::ReferenceRisSeedSelection(graph, k, options, &reference_rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(result->seeds, reference->seeds);
  EXPECT_EQ(std::bit_cast<uint64_t>(result->estimated_spread),
            std::bit_cast<uint64_t>(reference->estimated_spread));
  EXPECT_EQ(result->rr_sets_generated, reference->rr_sets_generated);
  EXPECT_EQ(rng.Next(), reference_rng.Next());
}

TEST(RisReferenceTest, SameBytesAsTheStandAloneSolver) {
  Rng graph_rng(17);
  Result<Graph> ba = BarabasiAlbert(2000, 3, &graph_rng);
  ASSERT_TRUE(ba.ok());
  Result<Graph> pa = DirectedPreferentialAttachment(1000, 3, &graph_rng);
  ASSERT_TRUE(pa.ok());
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"unit BA", WithUniformWeights(ba.value(), 1.0f)},
      {"weighted-cascade BA", WithWeightedCascadeWeights(ba.value())},
      {"weighted-cascade directed PA",
       WithWeightedCascadeWeights(pa.value())}};
  for (const auto& [name, graph] : graphs) {
    for (const int64_t steps : {int64_t{1}, int64_t{2}, int64_t{-1}}) {
      for (const uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{42}}) {
        for (const int64_t k : {int64_t{1}, int64_t{10}, int64_t{50}}) {
          SCOPED_TRACE(name + " steps " + std::to_string(steps) + " seed " +
                       std::to_string(seed) + " k " + std::to_string(k));
          RisOptions options;
          options.num_rr_sets = 600;
          options.max_steps = steps;
          ExpectSameBytesAsReference(graph, k, options, seed);
        }
      }
    }
  }
}

// A pool past the sweep's parallel grain: every RR set from a leaf holds
// hub 0, and two thirds hold hub 1, so both hubs' posting lists take the
// chunked parallel path (marking hub 0, recounting hub 1).
TEST(RisReferenceTest, ParallelSweepOnAHubPoolMatchesTheReference) {
  constexpr NodeId kLeaves = 3000;
  std::vector<Edge> edges;
  for (NodeId leaf = 2; leaf < kLeaves + 2; ++leaf) {
    edges.push_back({0, leaf, 1.0f});
    if (leaf % 3 != 0) edges.push_back({1, leaf, 1.0f});
  }
  const Graph graph = MakeGraph(kLeaves + 2, edges);
  RisOptions options;
  options.num_rr_sets = 120000;
  options.max_steps = 1;
  ASSERT_GT(2 * options.num_rr_sets / 3, SketchIndex::kParallelGrain);
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    SetGlobalThreadPoolSize(threads);
    ExpectSameBytesAsReference(graph, 3, options, 5);
  }
  SetGlobalThreadPoolSize(0);
}

}  // namespace
}  // namespace privim
