// Seed selection ranks the evaluation graph through the compiled program
// (infer::ScoreGraph), not the autograd tape. These tests pin that the
// switch changed no byte: for every GNN kind, RunPrivIm's eval_scores and
// seeds equal a tape Forward of the released model over a full
// GraphContext of the evaluation graph, and so do the EGN and HP
// baselines'.

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "privim/baselines/egn.h"
#include "privim/baselines/hp.h"
#include "privim/core/pipeline.h"
#include "privim/datasets/datasets.h"
#include "privim/datasets/split.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/im/seed_selection.h"

namespace privim {
namespace {

struct Split {
  Graph train;
  Graph eval;
};

Split MakeSplit(uint64_t seed) {
  Result<Dataset> dataset =
      MakeDataset(DatasetId::kEmail, DatasetScale::kTiny, seed);
  EXPECT_TRUE(dataset.ok());
  Rng rng(seed + 1);
  Result<TrainTestSplit> split = SplitNodes(dataset->graph, 0.5, &rng);
  EXPECT_TRUE(split.ok());
  return {std::move(split->train.local), std::move(split->test.local)};
}

/// The released model's tape forward over a full context of `eval`.
Tensor TapeScores(const GnnModel& model, const Graph& eval) {
  const GraphContext ctx = GraphContext::Build(eval);
  const Tensor features = BuildNodeFeatures(eval, model.config().input_dim);
  return model.Forward(ctx, Variable(features)).value();
}

void ExpectScoresMatchTape(const PrivImResult& result, const Graph& eval,
                           int64_t k, const std::string& what) {
  ASSERT_NE(result.model, nullptr) << what;
  const Tensor want = TapeScores(*result.model, eval);
  ASSERT_EQ(result.eval_scores.rows(), want.rows()) << what;
  ASSERT_EQ(result.eval_scores.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(result.eval_scores.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(float)),
            0)
      << what << ": eval_scores differ from the tape forward";
  EXPECT_EQ(result.seeds, TopKSeeds(want, k)) << what;
}

TEST(SelectionScoringTest, PipelineMatchesTapeForwardForEveryKind) {
  const Split split = MakeSplit(11);
  for (const GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat,
                             GnnKind::kGrat, GnnKind::kGin}) {
    PrivImOptions options;
    options.gnn.kind = kind;
    options.gnn.input_dim = 4;
    options.gnn.hidden_dim = 8;
    options.gnn.num_layers = 2;
    options.subgraph_size = 12;
    options.frequency_threshold = 4;
    options.sampling_rate = 0.6;
    options.walk_length = 150;
    options.batch_size = 8;
    options.iterations = 6;
    options.seed_set_size = 10;
    options.epsilon = 4.0;
    Result<PrivImResult> result =
        RunPrivIm(split.train, split.eval, options, 17);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectScoresMatchTape(result.value(), split.eval, options.seed_set_size,
                          GnnKindToString(kind));
  }
}

TEST(SelectionScoringTest, EgnMatchesTapeForward) {
  const Split split = MakeSplit(12);
  EgnOptions options;
  options.gnn.input_dim = 4;
  options.gnn.hidden_dim = 8;
  options.gnn.num_layers = 2;
  options.subgraph_size = 12;
  options.sampling_rate = 0.5;
  options.walk_length = 150;
  options.batch_size = 8;
  options.iterations = 6;
  options.seed_set_size = 10;
  options.epsilon = 4.0;
  Result<PrivImResult> result = RunEgn(split.train, split.eval, options, 19);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectScoresMatchTape(result.value(), split.eval, options.seed_set_size,
                        "EGN");
}

TEST(SelectionScoringTest, HpMatchesTapeForwardWithEitherBackbone) {
  const Split split = MakeSplit(13);
  HpOptions options;
  options.gnn.input_dim = 4;
  options.gnn.hidden_dim = 8;
  options.gnn.num_layers = 2;
  options.theta = 5;
  options.sampling_rate = 0.5;
  options.batch_size = 8;
  options.iterations = 6;
  options.seed_set_size = 10;
  options.epsilon = 4.0;
  for (const bool use_grat : {false, true}) {
    Result<PrivImResult> result =
        RunHp(split.train, split.eval, options, use_grat, 23);
    ASSERT_TRUE(result.ok()) << result.status().message();
    ExpectScoresMatchTape(result.value(), split.eval, options.seed_set_size,
                          use_grat ? "HP (GRAT)" : "HP (GCN)");
  }
}

}  // namespace
}  // namespace privim
