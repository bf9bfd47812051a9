#include "privim/im/celf.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "gtest/gtest.h"
#include "privim/graph/generators.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_oracles.h"

namespace privim {
namespace {

using testing::MakeGraph;
using testing::MakeStar;

Graph UnitBaGraph(uint64_t seed, int64_t nodes = 200, int64_t m = 3) {
  Rng rng(seed);
  Result<Graph> graph = BarabasiAlbert(nodes, m, &rng);
  EXPECT_TRUE(graph.ok());
  return WithUniformWeights(graph.value(), 1.0f);
}

TEST(CelfGreedyTest, PicksTheObviousBestNode) {
  const Graph star = MakeStar(20);
  DeterministicCoverageOracle oracle(star, 1);
  Result<SeedSelectionResult> result = CelfGreedy(oracle, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->seeds.size(), 1u);
  EXPECT_EQ(result->seeds[0], 0);
  EXPECT_DOUBLE_EQ(result->spread, 20.0);
}

TEST(CelfGreedyTest, MatchesPlainGreedySpread) {
  const Graph graph = UnitBaGraph(1);
  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> celf = CelfGreedy(oracle, 8);
  Result<SeedSelectionResult> plain = testing::PlainGreedy(oracle, 8);
  ASSERT_TRUE(celf.ok());
  ASSERT_TRUE(plain.ok());
  // Greedy choices may tie-break differently but the achieved spread of
  // lazy and plain greedy must be identical.
  EXPECT_DOUBLE_EQ(celf->spread, plain->spread);
}

TEST(CelfGreedyTest, LazyEvaluationsAreFewer) {
  const Graph graph = UnitBaGraph(2, 300, 4);
  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> celf = CelfGreedy(oracle, 10);
  Result<SeedSelectionResult> plain = testing::PlainGreedy(oracle, 10);
  ASSERT_TRUE(celf.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_LT(celf->evaluations, plain->evaluations / 2);
}

TEST(CelfGreedyTest, SpreadMatchesReportedSeeds) {
  const Graph graph = UnitBaGraph(3);
  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> result = CelfGreedy(oracle, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->spread, oracle.Spread(result->seeds));
}

TEST(CelfGreedyTest, SeedsAreDistinct) {
  const Graph graph = UnitBaGraph(4);
  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> result = CelfGreedy(oracle, 20);
  ASSERT_TRUE(result.ok());
  std::set<NodeId> unique(result->seeds.begin(), result->seeds.end());
  EXPECT_EQ(unique.size(), result->seeds.size());
}

TEST(CelfGreedyTest, KClampedToNodeCount) {
  const Graph tiny = MakeStar(4);
  DeterministicCoverageOracle oracle(tiny, 1);
  Result<SeedSelectionResult> result = CelfGreedy(oracle, 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->seeds.size(), 4u);
}

TEST(CelfGreedyTest, RejectsNonPositiveK) {
  const Graph tiny = MakeStar(4);
  DeterministicCoverageOracle oracle(tiny, 1);
  EXPECT_FALSE(CelfGreedy(oracle, 0).ok());
  EXPECT_FALSE(testing::PlainGreedy(oracle, -1).ok());
}

TEST(CelfGreedyTest, ApproximationBoundVersusBruteForceOptimum) {
  // Exhaustive optimum over all pairs on a small graph; greedy must achieve
  // at least (1 - 1/e) of it (it's typically equal or near).
  const Graph graph = UnitBaGraph(5, 40, 2);
  DeterministicCoverageOracle oracle(graph, 1);
  double best = 0.0;
  for (NodeId a = 0; a < 40; ++a) {
    for (NodeId b = a + 1; b < 40; ++b) {
      best = std::max(best, oracle.Spread({a, b}));
    }
  }
  Result<SeedSelectionResult> greedy = CelfGreedy(oracle, 2);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(greedy->spread, (1.0 - 1.0 / std::exp(1.0)) * best - 1e-9);
}

TEST(CelfGreedyTest, MarginalGainsAreNonIncreasing) {
  const Graph graph = UnitBaGraph(6);
  DeterministicCoverageOracle oracle(graph, 1);
  Result<SeedSelectionResult> result = CelfGreedy(oracle, 10);
  ASSERT_TRUE(result.ok());
  double previous_gain = 1e18;
  std::vector<NodeId> prefix;
  double prefix_spread = 0.0;
  for (NodeId seed : result->seeds) {
    prefix.push_back(seed);
    const double spread = oracle.Spread(prefix);
    const double gain = spread - prefix_spread;
    EXPECT_LE(gain, previous_gain + 1e-9);
    previous_gain = gain;
    prefix_spread = spread;
  }
}

TEST(TopDegreeSeedsTest, OrdersByOutDegree) {
  const Graph graph =
      MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  const std::vector<NodeId> seeds = TopDegreeSeeds(graph, 2);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], 0);
  EXPECT_EQ(seeds[1], 1);
}

TEST(DegreeDiscountSeedsTest, FirstPickIsMaxDegree) {
  const Graph star = MakeStar(10);
  const std::vector<NodeId> seeds = DegreeDiscountSeeds(star, 3);
  ASSERT_GE(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], 0);
}

TEST(DegreeDiscountSeedsTest, AvoidsRedundantNeighborsOnStar) {
  // Undirected two-star graph: after picking the first center, its leaves
  // are discounted, so the second pick must be the other center (not a
  // high-degree neighbor of the first). Uses a moderate edge probability;
  // p = 1 makes the classical discount formula over-penalize.
  std::vector<Edge> edges;
  for (NodeId v = 2; v < 9; ++v) edges.push_back({0, v, 1.0f});
  for (NodeId v = 9; v < 15; ++v) edges.push_back({1, v, 1.0f});
  edges.push_back({0, 1, 1.0f});
  const Graph two_stars = MakeGraph(15, edges, /*undirected=*/true);
  const std::vector<NodeId> seeds =
      DegreeDiscountSeeds(two_stars, 2, /*edge_probability=*/0.1);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], 0);
  EXPECT_EQ(seeds[1], 1);
}

TEST(MonteCarloIcOracleTest, AgreesWithDeterministicAtUnitWeights) {
  const Graph graph = UnitBaGraph(7, 80, 3);
  IcOptions options;
  options.max_steps = 1;
  options.num_simulations = 5;
  options.parallel = false;
  MonteCarloIcOracle mc(graph, options, /*seed=*/42);
  DeterministicCoverageOracle det(graph, 1);
  for (const std::vector<NodeId>& seeds :
       {std::vector<NodeId>{0}, std::vector<NodeId>{1, 2, 3}}) {
    EXPECT_DOUBLE_EQ(mc.Spread(seeds), det.Spread(seeds));
  }
}

}  // namespace
}  // namespace privim
