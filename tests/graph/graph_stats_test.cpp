#include "privim/graph/graph_stats.h"

#include "gtest/gtest.h"
#include "privim/graph/generators.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_oracles.h"

namespace privim {
namespace {

TEST(GraphStatsTest, BasicCounts) {
  const Graph graph = testing::MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 0}});
  Rng rng(1);
  const GraphStats stats = ComputeGraphStats(graph, &rng);
  EXPECT_EQ(stats.num_nodes, 4);
  EXPECT_EQ(stats.num_arcs, 4);
  EXPECT_DOUBLE_EQ(stats.average_degree, 1.0);
  EXPECT_EQ(stats.max_out_degree, 3);
  EXPECT_EQ(stats.max_in_degree, 1);
}

TEST(GraphStatsTest, CliqueClusteringIsOne) {
  const Graph clique = testing::MakeClique(6);
  Rng rng(2);
  const GraphStats stats = ComputeGraphStats(clique, &rng, 100);
  EXPECT_NEAR(stats.clustering_coefficient, 1.0, 1e-9);
}

TEST(GraphStatsTest, TreeClusteringIsZero) {
  const Graph star = testing::MakeStar(10);
  Rng rng(3);
  const GraphStats stats = ComputeGraphStats(star, &rng, 100);
  EXPECT_DOUBLE_EQ(stats.clustering_coefficient, 0.0);
}

TEST(GraphStatsTest, ClusteringDisabled) {
  const Graph clique = testing::MakeClique(4);
  Rng rng(4);
  const GraphStats stats = ComputeGraphStats(clique, &rng, 0);
  EXPECT_DOUBLE_EQ(stats.clustering_coefficient, 0.0);
}

TEST(GraphStatsTest, WattsStrogatzHasHigherClusteringThanRandom) {
  Rng rng(5);
  Result<Graph> ws = WattsStrogatz(500, 8, 0.05, &rng);
  Result<Graph> er = testing::ErdosRenyi(500, 2000, false, &rng);
  ASSERT_TRUE(ws.ok());
  ASSERT_TRUE(er.ok());
  Rng stats_rng(6);
  const double ws_cc =
      ComputeGraphStats(ws.value(), &stats_rng, 400).clustering_coefficient;
  const double er_cc =
      ComputeGraphStats(er.value(), &stats_rng, 400).clustering_coefficient;
  EXPECT_GT(ws_cc, 2.0 * er_cc);
}

}  // namespace
}  // namespace privim
