#include "privim/core/combinatorial.h"

#include <cmath>

#include "gtest/gtest.h"
#include "privim/datasets/datasets.h"
#include "privim/datasets/split.h"
#include "privim/gnn/features.h"
#include "privim/graph/generators.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

using testing::MakeCycle;
using testing::MakeGraph;

std::unique_ptr<GnnModel> MakeModel(uint64_t seed) {
  GnnConfig config;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  Rng rng(seed);
  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(config, &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(CutValueTest, CountsCrossingArcs) {
  const Graph graph = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(CutValue(graph, {0, 1, 0, 1}), 4);  // alternating: all arcs cut
  EXPECT_EQ(CutValue(graph, {0, 0, 0, 0}), 0);
  EXPECT_EQ(CutValue(graph, {1, 0, 0, 0}), 2);  // arcs 3->0 and 0->1
}

TEST(MaxCutLossTest, MatchesAnalyticExpectedCut) {
  // Single arc (0, 1). With p = (p0, p1), the loss is
  // -(p0 (1 - p1) + p1 (1 - p0)) / 1. We cannot set p directly, but we can
  // verify the loss lies in [-1, 0] and is finite for any model output.
  const Graph graph = MakeGraph(2, {{0, 1}});
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, 4);
  auto model = MakeModel(1);
  Result<Variable> loss =
      MaxCutLoss(model->Forward(ctx, Variable(features)), ctx);
  ASSERT_TRUE(loss.ok());
  const float value = loss->value().at(0, 0);
  EXPECT_LE(value, 0.0f);
  EXPECT_GE(value, -1.0f);

  // Cross-check against the closed form using the model's own outputs.
  const Variable p = model->Forward(ctx, Variable(features));
  const float p0 = p.value().at(0, 0);
  const float p1 = p.value().at(1, 0);
  EXPECT_NEAR(value, -(p0 * (1 - p1) + p1 * (1 - p0)), 1e-5f);
}

TEST(MaxCutLossTest, GradientsFlow) {
  Rng rng(2);
  Result<Graph> graph = BarabasiAlbert(20, 3, &rng);
  ASSERT_TRUE(graph.ok());
  const GraphContext ctx = GraphContext::Build(graph.value());
  const Tensor features = BuildNodeFeatures(graph.value(), 4);
  auto model = MakeModel(3);
  Result<Variable> loss =
      MaxCutLoss(model->Forward(ctx, Variable(features)), ctx);
  ASSERT_TRUE(loss.ok());
  loss->Backward();
  double total = 0.0;
  for (const Variable& p : model->parameters()) total += p.grad().MaxAbs();
  EXPECT_GT(total, 0.0);
}

TEST(MaxCutLossTest, ArclessGraphGivesZeroLoss) {
  GraphBuilder builder(3);
  Result<Graph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const GraphContext ctx = GraphContext::Build(graph.value());
  const Tensor features = BuildNodeFeatures(graph.value(), 4);
  auto model = MakeModel(4);
  Result<Variable> loss =
      MaxCutLoss(model->Forward(ctx, Variable(features)), ctx);
  ASSERT_TRUE(loss.ok());
  EXPECT_FLOAT_EQ(loss->value().at(0, 0), 0.0f);
}

TEST(MaxCutLossTest, RejectsShapeMismatch) {
  const Graph graph = MakeCycle(4);
  const GraphContext ctx = GraphContext::Build(graph);
  auto model = MakeModel(5);
  EXPECT_FALSE(MaxCutLoss(Variable(Tensor(4, 9)), ctx).ok());
}

TEST(LocalSearchMaxCutTest, LocalOptimumCutsAtLeastHalfTheArcs) {
  // At a 1-swap local optimum every node has >= half its incident arcs
  // crossing, so the total cut is >= |arcs| / 2 (the classic guarantee; a
  // perfect bipartition is NOT guaranteed even on even cycles).
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Graph cycle = MakeCycle(10);
    Rng rng(seed);
    const std::vector<uint8_t> assignment = LocalSearchMaxCut(cycle, &rng);
    EXPECT_GE(CutValue(cycle, assignment), 5);
  }
}

TEST(DerandomizedRoundingTest, UniformScoresStillCutHalf) {
  // With p = 0.5 everywhere, conditional-expectation rounding degenerates
  // to greedy cut, which also guarantees >= half the arcs.
  Rng graph_rng(60);
  Result<Graph> graph = BarabasiAlbert(200, 4, &graph_rng);
  ASSERT_TRUE(graph.ok());
  const Tensor scores(graph->num_nodes(), 1, 0.5f);
  const std::vector<uint8_t> assignment =
      DerandomizedRounding(graph.value(), scores);
  EXPECT_GE(CutValue(graph.value(), assignment), graph->num_arcs() / 2);
}

TEST(DerandomizedRoundingTest, RespectsConfidentScores) {
  // Confident, consistent probabilities on a bipartite 4-cycle are kept.
  const Graph cycle = MakeCycle(4);
  const Tensor scores =
      Tensor::FromVector(4, 1, {0.95f, 0.05f, 0.95f, 0.05f});
  const std::vector<uint8_t> assignment =
      DerandomizedRounding(cycle, scores);
  EXPECT_EQ(CutValue(cycle, assignment), 4);
  EXPECT_EQ(assignment[0], assignment[2]);
  EXPECT_NE(assignment[0], assignment[1]);
}

TEST(LocalSearchMaxCutTest, BeatsRandomOnAverage) {
  Rng graph_rng(7);
  Result<Graph> graph = BarabasiAlbert(200, 4, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng rng(8);
  const std::vector<uint8_t> searched =
      LocalSearchMaxCut(graph.value(), &rng);
  // Random assignment cuts ~half the arcs in expectation; local search
  // must do strictly better on a connected non-bipartite graph.
  double random_total = 0.0;
  for (int t = 0; t < 20; ++t) {
    std::vector<uint8_t> random(graph->num_nodes());
    for (auto& a : random) a = rng.NextBernoulli(0.5);
    random_total += static_cast<double>(CutValue(graph.value(), random));
  }
  EXPECT_GT(static_cast<double>(CutValue(graph.value(), searched)),
            random_total / 20.0);
}

TEST(RunPrivMaxCutTest, EndToEndBeatsHalfTheArcs) {
  Result<Dataset> dataset =
      MakeDataset(DatasetId::kLastFm, DatasetScale::kTiny, 9);
  ASSERT_TRUE(dataset.ok());
  Rng rng(10);
  Result<TrainTestSplit> split = SplitNodes(dataset->graph, 0.5, &rng);
  ASSERT_TRUE(split.ok());

  PrivImOptions options;
  options.gnn.input_dim = 6;
  options.gnn.hidden_dim = 12;
  options.gnn.num_layers = 2;
  options.subgraph_size = 15;
  options.frequency_threshold = 5;
  options.sampling_rate = 0.8;
  options.iterations = 30;
  options.batch_size = 12;
  options.learning_rate = 0.1f;
  options.clip_bound = 0.2f;
  options.epsilon = -1.0;  // non-private extension check
  Result<MaxCutResult> result =
      RunPrivMaxCut(split->train.local, split->test.local, options, 11);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(result->assignment.size()),
            split->test.local.num_nodes());
  // Derandomized rounding guarantees at least the greedy half-cut level.
  EXPECT_GE(result->cut_value, split->test.local.num_arcs() * 45 / 100);
}

TEST(RunPrivMaxCutTest, PrivateRunFillsAccountingFields) {
  Result<Dataset> dataset =
      MakeDataset(DatasetId::kEmail, DatasetScale::kTiny, 12);
  ASSERT_TRUE(dataset.ok());
  Rng rng(13);
  Result<TrainTestSplit> split = SplitNodes(dataset->graph, 0.5, &rng);
  ASSERT_TRUE(split.ok());

  PrivImOptions options;
  options.gnn.input_dim = 4;
  options.gnn.hidden_dim = 8;
  options.gnn.num_layers = 2;
  options.subgraph_size = 12;
  options.frequency_threshold = 4;
  options.sampling_rate = 0.6;
  options.iterations = 10;
  options.batch_size = 8;
  options.epsilon = 3.0;
  Result<MaxCutResult> result =
      RunPrivMaxCut(split->train.local, split->test.local, options, 14);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->noise_multiplier, 0.0);
  EXPECT_LE(result->achieved_epsilon, 3.0 * 1.001);
  EXPECT_GT(result->container_size, 0);
}

TEST(RunPrivMaxCutTest, DeterministicInSeed) {
  Result<Dataset> dataset =
      MakeDataset(DatasetId::kBitcoin, DatasetScale::kTiny, 15);
  ASSERT_TRUE(dataset.ok());
  Rng rng(16);
  Result<TrainTestSplit> split = SplitNodes(dataset->graph, 0.5, &rng);
  ASSERT_TRUE(split.ok());
  PrivImOptions options;
  options.gnn.input_dim = 4;
  options.gnn.hidden_dim = 8;
  options.gnn.num_layers = 2;
  options.subgraph_size = 12;
  options.sampling_rate = 0.6;
  options.iterations = 8;
  options.batch_size = 8;
  options.epsilon = 4.0;
  Result<MaxCutResult> a =
      RunPrivMaxCut(split->train.local, split->test.local, options, 17);
  Result<MaxCutResult> b =
      RunPrivMaxCut(split->train.local, split->test.local, options, 17);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->cut_value, b->cut_value);
}

}  // namespace
}  // namespace privim
