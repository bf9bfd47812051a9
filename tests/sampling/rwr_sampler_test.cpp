#include "privim/sampling/rwr_sampler.h"

#include <cmath>
#include <string>
#include <unordered_set>

#include "gtest/gtest.h"
#include "privim/dp/sensitivity.h"
#include "privim/graph/generators.h"
#include "privim/graph/projection.h"
#include "privim/graph/traversal.h"

namespace privim {
namespace {

RwrSamplerOptions DefaultOptions() {
  RwrSamplerOptions options;
  options.subgraph_size = 10;
  options.restart_probability = 0.3;
  options.sampling_rate = 0.5;
  options.walk_length = 200;
  options.hop_limit = 3;
  return options;
}

TEST(RwrSamplerTest, ValidatesOptions) {
  RwrSamplerOptions options = DefaultOptions();
  options.subgraph_size = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = DefaultOptions();
  options.restart_probability = 1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = DefaultOptions();
  options.sampling_rate = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = DefaultOptions();
  options.walk_length = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = DefaultOptions();
  options.hop_limit = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(DefaultOptions().Validate().ok());

  options = DefaultOptions();
  options.restart_probability = std::nan("");
  Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("restart_probability"), std::string::npos);
  options = DefaultOptions();
  options.sampling_rate = std::nan("");
  status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("sampling_rate"), std::string::npos);
}

TEST(RwrSamplerTest, SubgraphsHaveExactRequestedSize) {
  Rng graph_rng(1);
  Result<Graph> graph = BarabasiAlbert(300, 4, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng rng(2);
  Result<SubgraphContainer> container =
      ExtractSubgraphsRwr(graph.value(), DefaultOptions(), &rng);
  ASSERT_TRUE(container.ok());
  EXPECT_GT(container->size(), 10);
  for (int64_t i = 0; i < container->size(); ++i) {
    EXPECT_EQ(container->at(i).num_nodes(), 10);
  }
}

TEST(RwrSamplerTest, NodesStayWithinHopBallOfStart) {
  Rng graph_rng(3);
  Result<Graph> graph = BarabasiAlbert(200, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  RwrSamplerOptions options = DefaultOptions();
  options.hop_limit = 2;
  Rng rng(4);
  Result<SubgraphContainer> container =
      ExtractSubgraphsRwr(graph.value(), options, &rng);
  ASSERT_TRUE(container.ok());
  ASSERT_GT(container->size(), 0);
  for (int64_t i = 0; i < container->size(); ++i) {
    const Subgraph& sub = container->at(i);
    // The walk starts at global_ids[0]; all members must lie in its 2-hop
    // undirected ball (the walk moves on the undirected structure).
    const std::vector<NodeId> ball =
        UndirectedRHopBall(graph.value(), sub.global_ids[0], options.hop_limit);
    const std::unordered_set<NodeId> ball_set(ball.begin(), ball.end());
    for (NodeId v : sub.global_ids) EXPECT_TRUE(ball_set.count(v));
  }
}

TEST(RwrSamplerTest, EmpiricalOccurrencesRespectLemma1OnProjectedGraph) {
  Rng graph_rng(5);
  Result<Graph> graph = BarabasiAlbert(400, 5, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng proj_rng(6);
  const int64_t theta = 4;
  Result<Graph> projected = ProjectInDegree(graph.value(), theta, &proj_rng);
  ASSERT_TRUE(projected.ok());

  RwrSamplerOptions options = DefaultOptions();
  options.sampling_rate = 1.0;  // start a walk from every node
  Rng rng(7);
  Result<SubgraphContainer> container =
      ExtractSubgraphsRwr(projected.value(), options, &rng);
  ASSERT_TRUE(container.ok());
  const int64_t bound = NaiveOccurrenceBound(theta, options.hop_limit);
  EXPECT_LE(container->MaxOccurrence(projected->num_nodes()), bound);
}

TEST(RwrSamplerTest, SamplingRateControlsContainerSize) {
  Rng graph_rng(8);
  Result<Graph> graph = BarabasiAlbert(500, 4, &graph_rng);
  ASSERT_TRUE(graph.ok());
  RwrSamplerOptions sparse = DefaultOptions();
  sparse.sampling_rate = 0.05;
  RwrSamplerOptions dense = DefaultOptions();
  dense.sampling_rate = 0.9;
  Rng rng1(9), rng2(9);
  Result<SubgraphContainer> few =
      ExtractSubgraphsRwr(graph.value(), sparse, &rng1);
  Result<SubgraphContainer> many =
      ExtractSubgraphsRwr(graph.value(), dense, &rng2);
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_LT(few->size(), many->size());
}

TEST(RwrSamplerTest, TooSmallBallsProduceNoSubgraph) {
  // A path graph has tiny hop balls; requesting size-20 subgraphs from
  // 3-hop balls must yield nothing.
  GraphBuilder builder(30);
  for (NodeId v = 0; v + 1 < 30; ++v) ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  Result<Graph> path = builder.Build();
  ASSERT_TRUE(path.ok());
  RwrSamplerOptions options = DefaultOptions();
  options.subgraph_size = 20;
  options.sampling_rate = 1.0;
  Rng rng(10);
  Result<SubgraphContainer> container =
      ExtractSubgraphsRwr(path.value(), options, &rng);
  ASSERT_TRUE(container.ok());
  EXPECT_EQ(container->size(), 0);
}

TEST(RwrSamplerTest, DeterministicInSeed) {
  Rng graph_rng(11);
  Result<Graph> graph = BarabasiAlbert(150, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng rng1(12), rng2(12);
  Result<SubgraphContainer> a =
      ExtractSubgraphsRwr(graph.value(), DefaultOptions(), &rng1);
  Result<SubgraphContainer> b =
      ExtractSubgraphsRwr(graph.value(), DefaultOptions(), &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (int64_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->at(i).global_ids, b->at(i).global_ids);
  }
}

}  // namespace
}  // namespace privim
