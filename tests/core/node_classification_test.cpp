#include "privim/core/node_classification.h"

#include <cmath>

#include "gtest/gtest.h"
#include "privim/datasets/datasets.h"
#include "privim/datasets/split.h"
#include "privim/gnn/features.h"
#include "privim/graph/generators.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

using testing::MakeGraph;
using testing::MakePath;

std::unique_ptr<GnnModel> MakeModel(uint64_t seed) {
  GnnConfig config;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  Rng rng(seed);
  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(config, &rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(GenerateCommunityLabelsTest, BothClassesPresentAndSized) {
  Rng graph_rng(1);
  Result<Graph> graph = BarabasiAlbert(300, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng rng(2);
  const std::vector<uint8_t> labels =
      GenerateCommunityLabels(graph.value(), 4, &rng);
  ASSERT_EQ(static_cast<int64_t>(labels.size()), 300);
  int64_t positives = 0;
  for (uint8_t y : labels) {
    ASSERT_LE(y, 1);
    positives += y;
  }
  EXPECT_GT(positives, 30);
  EXPECT_LT(positives, 270);
}

TEST(GenerateCommunityLabelsTest, LabelsAreStructurallyClustered) {
  // Neighbors should share labels far more often than 50%: the labels come
  // from a BFS Voronoi partition.
  Rng graph_rng(3);
  Result<Graph> graph = BarabasiAlbert(500, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  Rng rng(4);
  const std::vector<uint8_t> labels =
      GenerateCommunityLabels(graph.value(), 3, &rng);
  int64_t same = 0, total = 0;
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    for (NodeId v : graph->OutNeighbors(u)) {
      same += labels[u] == labels[v];
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(total), 0.6);
}

TEST(GenerateCommunityLabelsTest, DisconnectedNodesGetCoinFlips) {
  GraphBuilder builder(10);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  Result<Graph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  Rng rng(5);
  const std::vector<uint8_t> labels =
      GenerateCommunityLabels(graph.value(), 1, &rng);
  EXPECT_EQ(labels.size(), 10u);  // no crash; all labels defined
}

TEST(BinaryCrossEntropyLossTest, PerfectAndWorstCaseOrdering) {
  const Graph graph = MakePath(4);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, 4);
  auto model = MakeModel(6);
  Subgraph sub;
  sub.local = graph;
  sub.global_ids = {0, 1, 2, 3};

  // Same model output scored against its own thresholded predictions
  // (agreeing labels) vs inverted labels: agreeing labels give lower loss.
  const Variable p = model->Forward(ctx, Variable(features));
  std::vector<uint8_t> agree(4), disagree(4);
  for (int64_t v = 0; v < 4; ++v) {
    agree[v] = p.value().at(v, 0) > 0.5f;
    disagree[v] = !agree[v];
  }
  Result<Variable> low = BinaryCrossEntropyLoss(p, ctx, sub, agree);
  Result<Variable> high = BinaryCrossEntropyLoss(p, ctx, sub, disagree);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_LT(low->value().at(0, 0), high->value().at(0, 0));
  EXPECT_GT(low->value().at(0, 0), 0.0f);  // BCE is positive
}

TEST(BinaryCrossEntropyLossTest, RejectsBadLabels) {
  const Graph graph = MakePath(3);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, 4);
  auto model = MakeModel(7);
  Subgraph sub;
  sub.local = graph;
  sub.global_ids = {0, 1, 9};  // out of range for a 3-label vector
  const std::vector<uint8_t> labels = {0, 1, 1};
  EXPECT_FALSE(BinaryCrossEntropyLoss(model->Forward(ctx, Variable(features)),
                                      ctx, sub, labels)
                   .ok());
}

struct NcFixture {
  Graph train;
  Graph eval;
  std::vector<uint8_t> train_labels;
  std::vector<uint8_t> eval_labels;
};

NcFixture MakeNcFixture(uint64_t seed) {
  NcFixture fixture;
  Result<Dataset> dataset =
      MakeDataset(DatasetId::kLastFm, DatasetScale::kTiny, seed);
  EXPECT_TRUE(dataset.ok());
  Rng rng(seed + 1);
  // Label the FULL graph first so train and eval labels are consistent
  // community structure, then split.
  const std::vector<uint8_t> full_labels =
      GenerateCommunityLabels(dataset->graph, 3, &rng);
  Result<TrainTestSplit> split = SplitNodes(dataset->graph, 0.5, &rng);
  EXPECT_TRUE(split.ok());
  fixture.train = std::move(split->train.local);
  fixture.eval = std::move(split->test.local);
  for (NodeId global : split->train.global_ids) {
    fixture.train_labels.push_back(full_labels[global]);
  }
  for (NodeId global : split->test.global_ids) {
    fixture.eval_labels.push_back(full_labels[global]);
  }
  return fixture;
}

PrivImOptions NcOptions() {
  PrivImOptions options;
  options.gnn.input_dim = 6;
  options.gnn.hidden_dim = 12;
  options.gnn.num_layers = 2;
  options.subgraph_size = 15;
  options.frequency_threshold = 5;
  options.sampling_rate = 0.8;
  options.iterations = 40;
  options.batch_size = 12;
  options.learning_rate = 0.1f;
  options.clip_bound = 0.2f;
  return options;
}

TEST(RunPrivNodeClassificationTest, NonPrivateBeatsMajorityBaseline) {
  NcFixture fixture = MakeNcFixture(10);
  PrivImOptions options = NcOptions();
  options.epsilon = -1.0;
  Result<NodeClassificationResult> result = RunPrivNodeClassification(
      fixture.train, fixture.train_labels, fixture.eval, fixture.eval_labels,
      options, 11);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->predictions.size(), fixture.eval_labels.size());
  EXPECT_GT(result->accuracy, 0.5);
  EXPECT_GT(result->accuracy, result->majority_baseline - 0.05);
}

TEST(RunPrivNodeClassificationTest, PrivateRunFillsAccounting) {
  NcFixture fixture = MakeNcFixture(12);
  PrivImOptions options = NcOptions();
  options.iterations = 10;
  options.epsilon = 4.0;
  Result<NodeClassificationResult> result = RunPrivNodeClassification(
      fixture.train, fixture.train_labels, fixture.eval, fixture.eval_labels,
      options, 13);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->noise_multiplier, 0.0);
  EXPECT_LE(result->achieved_epsilon, 4.0 * 1.001);
}

TEST(RunPrivNodeClassificationTest, RejectsLabelSizeMismatch) {
  NcFixture fixture = MakeNcFixture(14);
  fixture.train_labels.pop_back();
  EXPECT_FALSE(RunPrivNodeClassification(fixture.train, fixture.train_labels,
                                         fixture.eval, fixture.eval_labels,
                                         NcOptions(), 15)
                   .ok());
}

}  // namespace
}  // namespace privim
