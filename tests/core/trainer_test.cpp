#include "privim/core/trainer.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "privim/common/thread_pool.h"
#include "privim/core/combinatorial.h"
#include "privim/core/node_classification.h"
#include "privim/dp/mechanisms.h"
#include "privim/dp/sensitivity.h"
#include "privim/gnn/features.h"
#include "privim/graph/generators.h"
#include "privim/nn/ops.h"
#include "privim/sampling/dual_stage.h"

namespace privim {
namespace {

struct TrainFixture {
  Graph graph;
  SubgraphContainer container;
  std::unique_ptr<GnnModel> model;
};

TrainFixture MakeFixture(uint64_t seed, GnnKind kind = GnnKind::kGrat) {
  TrainFixture fixture;
  Rng rng(seed);
  Result<Graph> graph = BarabasiAlbert(300, 4, &rng);
  EXPECT_TRUE(graph.ok());
  fixture.graph = WithUniformWeights(graph.value(), 1.0f);

  DualStageOptions sampling;
  sampling.stage1.subgraph_size = 12;
  sampling.stage1.sampling_rate = 0.6;
  sampling.stage1.frequency_threshold = 4;
  sampling.stage1.walk_length = 200;
  Result<DualStageResult> sampled =
      DualStageSampling(fixture.graph, sampling, &rng);
  EXPECT_TRUE(sampled.ok());
  fixture.container = std::move(sampled.value().container);

  GnnConfig config;
  config.kind = kind;
  config.input_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(config, &rng);
  EXPECT_TRUE(model.ok());
  fixture.model = std::move(model).value();
  return fixture;
}

DpSgdOptions FastOptions() {
  DpSgdOptions options;
  options.batch_size = 8;
  options.iterations = 25;
  options.learning_rate = 0.05f;
  options.clip_bound = 1.0f;
  options.noise_multiplier = 0.0;
  options.occurrence_bound = 4;
  return options;
}

TEST(DpSgdOptionsTest, Validation) {
  DpSgdOptions options = FastOptions();
  options.batch_size = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = FastOptions();
  options.clip_bound = 0.0f;
  EXPECT_FALSE(options.Validate().ok());
  options = FastOptions();
  options.noise_multiplier = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(FastOptions().Validate().ok());
}

TEST(TrainDpGnnTest, EmptyContainerFails) {
  TrainFixture fixture = MakeFixture(1);
  SubgraphContainer empty;
  Rng rng(2);
  EXPECT_EQ(TrainDpGnn(fixture.model.get(), empty, FastOptions(), &rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(TrainDpGnnTest, NonPrivateTrainingReducesLoss) {
  TrainFixture fixture = MakeFixture(3);
  Rng rng(4);
  DpSgdOptions options = FastOptions();
  options.iterations = 60;
  Result<TrainStats> stats =
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_LT(stats->mean_loss_last, stats->mean_loss_first);
  EXPECT_EQ(stats->iterations, 60);
  EXPECT_GT(stats->training_seconds, 0.0);
}

TEST(TrainDpGnnTest, TrainingChangesParameters) {
  TrainFixture fixture = MakeFixture(5);
  std::vector<Tensor> before;
  for (const Variable& p : fixture.model->parameters()) {
    before.push_back(p.value());
  }
  Rng rng(6);
  ASSERT_TRUE(
      TrainDpGnn(fixture.model.get(), fixture.container, FastOptions(), &rng)
          .ok());
  float total_change = 0.0f;
  const auto& params = fixture.model->parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor diff = params[i].value();
    diff.ScaleInPlace(-1.0f);
    diff.AddInPlace(before[i]);
    total_change += diff.L2Norm();
  }
  EXPECT_GT(total_change, 1e-4f);
}

TEST(TrainDpGnnTest, DeterministicInSeed) {
  TrainFixture a = MakeFixture(7);
  TrainFixture b = MakeFixture(7);
  Rng rng1(8), rng2(8);
  DpSgdOptions options = FastOptions();
  options.noise_multiplier = 0.5;  // exercise the noise path too
  ASSERT_TRUE(TrainDpGnn(a.model.get(), a.container, options, &rng1).ok());
  ASSERT_TRUE(TrainDpGnn(b.model.get(), b.container, options, &rng2).ok());
  const auto& pa = a.model->parameters();
  const auto& pb = b.model->parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i].value().size(); ++j) {
      EXPECT_FLOAT_EQ(pa[i].value().data()[j], pb[i].value().data()[j]);
    }
  }
}

TEST(TrainDpGnnTest, LargeNoiseDegradesTraining) {
  // Property the whole paper rests on: more DP noise, worse optimization.
  TrainFixture clean_fixture = MakeFixture(9);
  TrainFixture noisy_fixture = MakeFixture(9);
  DpSgdOptions clean = FastOptions();
  clean.iterations = 50;
  DpSgdOptions noisy = clean;
  noisy.noise_multiplier = 5.0;
  noisy.occurrence_bound = 50;  // huge sensitivity -> huge noise
  Rng rng1(10), rng2(10);
  Result<TrainStats> clean_stats =
      TrainDpGnn(clean_fixture.model.get(), clean_fixture.container, clean,
                 &rng1);
  Result<TrainStats> noisy_stats =
      TrainDpGnn(noisy_fixture.model.get(), noisy_fixture.container, noisy,
                 &rng2);
  ASSERT_TRUE(clean_stats.ok());
  ASSERT_TRUE(noisy_stats.ok());
  EXPECT_LT(clean_stats->mean_loss_last, noisy_stats->mean_loss_last);
}

TEST(TrainDpGnnTest, SmlNoiseKindRuns) {
  TrainFixture fixture = MakeFixture(11);
  DpSgdOptions options = FastOptions();
  options.noise_multiplier = 0.3;
  options.noise_kind = NoiseKind::kSml;
  Rng rng(12);
  Result<TrainStats> stats =
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(std::isfinite(stats->mean_loss_last));
}

TEST(TrainDpGnnTest, AllModelKindsTrain) {
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat,
                       GnnKind::kGrat, GnnKind::kGin}) {
    TrainFixture fixture = MakeFixture(13, kind);
    Rng rng(14);
    DpSgdOptions options = FastOptions();
    options.iterations = 5;
    Result<TrainStats> stats =
        TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
    ASSERT_TRUE(stats.ok()) << GnnKindToString(kind) << ": "
                            << stats.status().ToString();
  }
}

TEST(TrainDpGnnTest, MomentumAndAdamOptimizersTrain) {
  for (OptimizerKind kind :
       {OptimizerKind::kMomentum, OptimizerKind::kAdam}) {
    TrainFixture fixture = MakeFixture(20);
    Rng rng(21);
    DpSgdOptions options = FastOptions();
    options.optimizer = kind;
    options.learning_rate = kind == OptimizerKind::kAdam ? 0.01f : 0.05f;
    options.iterations = 40;
    Result<TrainStats> stats =
        TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
    ASSERT_TRUE(stats.ok());
    EXPECT_LT(stats->mean_loss_last, stats->mean_loss_first)
        << "optimizer kind " << static_cast<int>(kind);
  }
}

TEST(TrainDpGnnTest, CustomLossHookIsUsed) {
  TrainFixture fixture = MakeFixture(22);
  Rng rng(23);
  DpSgdOptions options = FastOptions();
  options.iterations = 3;
  // The hook runs concurrently from pool workers (see SubgraphLossFn).
  std::atomic<int> calls{0};
  options.loss_fn = [&calls](const Variable& scores, const GraphContext& ctx,
                             const Subgraph& sub) {
    ++calls;
    EXPECT_EQ(static_cast<int64_t>(sub.global_ids.size()), ctx.num_nodes);
    return InfluenceLoss(scores, ctx, InfluenceLossOptions());
  };
  ASSERT_TRUE(
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng).ok());
  EXPECT_EQ(calls.load(), 3 * 8);  // iterations * batch_size
}

// Without a hook a subgraph's context holds only what the program and
// Eq. 5 read; a custom objective may read any operator, so its context
// holds them all — here max-cut's arc lists, which GRAT never reads.
TEST(TrainDpGnnTest, CustomObjectiveReceivesEveryContextPart) {
  TrainFixture fixture = MakeFixture(24);
  Rng rng(25);
  DpSgdOptions options = FastOptions();
  options.iterations = 3;
  std::atomic<int> calls{0};
  options.loss_fn = [&calls](const Variable& scores, const GraphContext& ctx,
                             const Subgraph& subgraph) {
    ++calls;
    EXPECT_EQ(ctx.parts, GraphContext::kAllParts);
    EXPECT_NE(ctx.influence_adj, nullptr);
    EXPECT_NE(ctx.gcn_adj, nullptr);
    EXPECT_NE(ctx.mean_in_adj, nullptr);
    EXPECT_NE(ctx.sum_in_adj, nullptr);
    EXPECT_EQ(ctx.graph, &subgraph.local);
    return MaxCutLoss(scores, ctx);
  };
  ASSERT_TRUE(
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng).ok());
  EXPECT_EQ(calls.load(), 3 * 8);
}

// A non-finite per-subgraph gradient would pass the clip (a NaN norm is
// never above C) and poison the release; training stops instead, naming
// the iteration, before that iteration's step.
TEST(TrainDpGnnTest, NonFiniteSubgraphGradientFailsNamingTheIteration) {
  TrainFixture fixture = MakeFixture(48);
  DpSgdOptions options = FastOptions();
  options.batch_size = fixture.container.size();  // every subgraph, each step
  options.iterations = 4;
  options.parallel = false;  // the hook counts its calls in batch order
  const int64_t poisoned = 2 * options.batch_size + 5;  // iteration 2
  int64_t calls = 0;
  options.loss_fn = [&calls, poisoned](const Variable& scores,
                                       const GraphContext& ctx,
                                       const Subgraph&) -> Result<Variable> {
    Result<Variable> loss = InfluenceLoss(scores, ctx, InfluenceLossOptions());
    if (calls++ != poisoned || !loss.ok()) return loss;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    return Multiply(loss.value(), Variable(Tensor::Scalar(nan)));
  };
  Rng rng(49);
  const Result<TrainStats> stats =
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stats.status().message().rfind("iteration 2: ", 0), 0u)
      << stats.status().message();
  for (const Variable& parameter : fixture.model->parameters()) {
    const Tensor& value = parameter.value();
    for (int64_t i = 0; i < value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(value.data()[i]));
    }
  }
}

// --- TrainDpGnn differentiates through the compiled program; its result
// must be the tape's: Alg. 2 replayed serially with a tape Backward()
// through model.Forward() per subgraph (the loop perfbench's traced run
// replays) reaches the same parameter bytes. ------------------------------

enum class Objective { kInfluence, kBce, kMaxCut };

const char* ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kInfluence:
      return "eq5";
    case Objective::kBce:
      return "bce";
    case Objective::kMaxCut:
      return "max-cut";
  }
  return "?";
}

Result<Variable> ObjectiveLoss(Objective objective, const Variable& scores,
                               const GraphContext& ctx, const Subgraph& sub,
                               const std::vector<uint8_t>& labels) {
  switch (objective) {
    case Objective::kInfluence:
      return InfluenceLoss(scores, ctx, InfluenceLossOptions());
    case Objective::kBce:
      return BinaryCrossEntropyLoss(scores, ctx, sub, labels);
    case Objective::kMaxCut:
      return MaxCutLoss(scores, ctx);
  }
  return Status::InvalidArgument("unknown objective");
}

// Alg. 2 on the tape, one subgraph at a time, in TrainDpGnn's float order.
Status ReplayOnTape(GnnModel* model, const SubgraphContainer& container,
                    const DpSgdOptions& options, Objective objective,
                    const std::vector<uint8_t>& labels, Rng* rng) {
  const std::vector<Variable>& params = model->parameters();
  const size_t count = static_cast<size_t>(ParameterCount(params));
  SgdOptimizer optimizer(params, options.learning_rate);
  const double noise_stddev =
      options.noise_multiplier *
      NodeSensitivity(options.clip_bound, options.occurrence_bound);
  std::vector<float> summed(count), mean_grad(count), grad;
  for (int64_t t = 0; t < options.iterations; ++t) {
    const std::vector<int64_t> batch =
        container.SampleBatch(options.batch_size, rng);
    std::fill(summed.begin(), summed.end(), 0.0f);
    for (const int64_t index : batch) {
      const Subgraph& sub = container.at(index);
      const GraphContext ctx = GraphContext::Build(sub.local);
      const Tensor features = BuildNodeFeatures(
          sub.local, model->config().input_dim, &sub.global_ids);
      for (const Variable& p : params) const_cast<Variable&>(p).ZeroGrad();
      Result<Variable> loss =
          ObjectiveLoss(objective, model->Forward(ctx, Variable(features)),
                        ctx, sub, labels);
      if (!loss.ok()) return loss.status();
      loss.value().Backward();
      FlattenGradientsInto(params, &grad);
      ClipL2(&grad, options.clip_bound);
      for (size_t i = 0; i < count; ++i) summed[i] += grad[i];
    }
    if (noise_stddev > 0.0) AddGaussianNoise(&summed, noise_stddev, rng);
    const float inv_batch = 1.0f / static_cast<float>(options.batch_size);
    for (size_t i = 0; i < count; ++i) mean_grad[i] = summed[i] * inv_batch;
    optimizer.Step(mean_grad);
  }
  for (const Variable& p : params) const_cast<Variable&>(p).ZeroGrad();
  return Status::OK();
}

bool SameParameterBytes(const GnnModel& a, const GnnModel& b) {
  const std::vector<Variable>& pa = a.parameters();
  const std::vector<Variable>& pb = b.parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& x = pa[i].value();
    const Tensor& y = pb[i].value();
    if (!x.SameShape(y) ||
        std::memcmp(x.data(), y.data(),
                    static_cast<size_t>(x.size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(TrainDpGnnTest, MatchesASerialTapeReplayForEveryKindAndObjective) {
  for (const GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat,
                             GnnKind::kGrat, GnnKind::kGin}) {
    const TrainFixture fixture = MakeFixture(40, kind);
    std::vector<uint8_t> labels;
    for (NodeId v = 0; v < fixture.graph.num_nodes(); ++v) {
      labels.push_back(static_cast<uint8_t>(v % 3 == 0));
    }
    for (const Objective objective :
         {Objective::kInfluence, Objective::kBce, Objective::kMaxCut}) {
      DpSgdOptions options = FastOptions();
      options.iterations = 4;
      options.noise_multiplier = 0.5;
      if (objective != Objective::kInfluence) {
        options.loss_fn = [objective, &labels](const Variable& scores,
                                               const GraphContext& ctx,
                                               const Subgraph& sub) {
          return ObjectiveLoss(objective, scores, ctx, sub, labels);
        };
      }
      Rng init_rng(0);
      std::unique_ptr<GnnModel> replay =
          CreateGnnModel(fixture.model->config(), &init_rng).value();
      ASSERT_TRUE(replay->CopyParametersFrom(*fixture.model).ok());
      Rng replay_rng(41);
      ASSERT_TRUE(ReplayOnTape(replay.get(), fixture.container, options,
                               objective, labels, &replay_rng)
                      .ok());
      ASSERT_FALSE(SameParameterBytes(*replay, *fixture.model));

      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SetGlobalThreadPoolSize(threads);
        std::unique_ptr<GnnModel> trained =
            CreateGnnModel(fixture.model->config(), &init_rng).value();
        ASSERT_TRUE(trained->CopyParametersFrom(*fixture.model).ok());
        Rng rng(41);
        const Result<TrainStats> stats =
            TrainDpGnn(trained.get(), fixture.container, options, &rng);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_TRUE(SameParameterBytes(*trained, *replay))
            << GnnKindToString(kind) << " " << ObjectiveName(objective)
            << " at " << threads << " threads";
      }
    }
  }
  SetGlobalThreadPoolSize(0);
}

// An objective that does not read the scores leaves the leaf without a
// gradient; the tape would leave every parameter gradient unset, so every
// step is zero and, without noise, the model does not move.
TEST(TrainDpGnnTest, ObjectiveIgnoringTheScoresGivesZeroGradients) {
  const TrainFixture fixture = MakeFixture(46);
  Rng init_rng(0);
  std::unique_ptr<GnnModel> before =
      CreateGnnModel(fixture.model->config(), &init_rng).value();
  ASSERT_TRUE(before->CopyParametersFrom(*fixture.model).ok());
  DpSgdOptions options = FastOptions();
  options.iterations = 2;
  options.loss_fn = [](const Variable&, const GraphContext&,
                       const Subgraph&) -> Result<Variable> {
    return Variable(Tensor::Scalar(0.25f));
  };
  Rng rng(47);
  const Result<TrainStats> stats =
      TrainDpGnn(fixture.model.get(), fixture.container, options, &rng);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FLOAT_EQ(static_cast<float>(stats->mean_loss_last), 0.25f);
  EXPECT_TRUE(SameParameterBytes(*fixture.model, *before));
}

}  // namespace
}  // namespace privim
