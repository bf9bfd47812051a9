// The checkpoint subsystem's headline guarantee: a run that is killed at
// iteration k and resumed from its snapshot produces bit-identical final
// weights, losses, seeds, and epsilon trajectory to a run that never
// crashed — at every thread count. The crash is injected in-process
// (fault::Mode::kStatus aborts TrainDpGnn exactly where _Exit would kill
// the process, after iteration k's checkpoint was written); the subprocess
// variant with a real _Exit lives in fault_injection_cli_test.cpp.

#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/fault_injection.h"
#include "privim/common/thread_pool.h"
#include "privim/core/pipeline.h"
#include "privim/graph/generators.h"
#include "privim/obs/metrics.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = privim::testing::ProcessTempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Graph MakeTrainGraph() {
  Rng rng(5);
  Result<Graph> graph = BarabasiAlbert(220, 4, &rng);
  EXPECT_TRUE(graph.ok());
  return WithWeightedCascadeWeights(graph.value());
}

PrivImOptions SmallOptions() {
  PrivImOptions options;
  options.subgraph_size = 18;
  options.iterations = 10;
  options.batch_size = 8;
  options.seed_set_size = 10;
  options.epsilon = 4.0;
  options.gnn.input_dim = 4;
  options.gnn.hidden_dim = 6;
  options.gnn.num_layers = 2;
  return options;
}

std::vector<float> FlattenWeights(const GnnModel& model) {
  std::vector<float> flat;
  for (const Variable& p : model.parameters()) {
    const Tensor& t = p.value();
    flat.insert(flat.end(), t.data(), t.data() + t.size());
  }
  return flat;
}

// The deterministic subset of the exported metrics (wall-clock histograms
// can never be bit-stable, even between two clean runs).
struct DeterministicMetrics {
  uint64_t train_iterations;
  uint64_t grads_clipped;
  double loss;
  double epsilon;
  double epsilon_first_step;

  bool operator==(const DeterministicMetrics& other) const = default;
};

DeterministicMetrics CollectMetrics() {
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  return DeterministicMetrics{
      registry.GetCounter("train.iterations")->Value(),
      registry.GetCounter("train.grads_clipped")->Value(),
      registry.GetGauge("train.loss")->Value(),
      registry.GetGauge("dp.epsilon")->Value(),
      registry.GetGauge("dp.epsilon_first_step")->Value(),
  };
}

struct RunOutcome {
  std::vector<float> weights;
  std::vector<NodeId> seeds;
  std::vector<double> epsilon_trajectory;
  double mean_loss_first;
  double mean_loss_last;
  DeterministicMetrics metrics;
};

RunOutcome Outcome(const PrivImResult& result) {
  RunOutcome outcome;
  outcome.weights = FlattenWeights(*result.model);
  outcome.seeds = result.seeds;
  outcome.epsilon_trajectory = result.epsilon_trajectory;
  outcome.mean_loss_first = result.train_stats.mean_loss_first;
  outcome.mean_loss_last = result.train_stats.mean_loss_last;
  outcome.metrics = CollectMetrics();
  return outcome;
}

class CheckpointResumeTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    SetGlobalThreadPoolSize(static_cast<size_t>(GetParam()));
  }
  void TearDown() override {
    fault::ClearFaults();
    SetGlobalThreadPoolSize(1);
  }
};

TEST_P(CheckpointResumeTest, KillAndResumeIsBitIdentical) {
  const Graph graph = MakeTrainGraph();
  const PrivImOptions base = SmallOptions();

  // Reference: one uninterrupted run, checkpointing enabled (snapshot
  // writes must not perturb results either).
  obs::GlobalMetrics().ResetAll();
  PrivImOptions uninterrupted = base;
  uninterrupted.checkpoint_dir = FreshDir(
      "resume_ref_" + std::to_string(GetParam()));
  Result<PrivImResult> reference = RunPrivIm(graph, graph, uninterrupted, 77);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const RunOutcome want = Outcome(reference.value());

  // Snapshot writes must not perturb the computation: a checkpoint-free
  // run gives the same weights.
  obs::GlobalMetrics().ResetAll();
  Result<PrivImResult> plain = RunPrivIm(graph, graph, base, 77);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(FlattenWeights(*plain.value().model), want.weights);

  // Crash after iteration 4 completed (checkpoint for iteration 5 exists).
  obs::GlobalMetrics().ResetAll();
  PrivImOptions crashing = base;
  crashing.checkpoint_dir =
      FreshDir("resume_crash_" + std::to_string(GetParam()));
  crashing.checkpoint_every = 1;
  fault::ArmIterationFault(4, fault::Mode::kStatus);
  Result<PrivImResult> crashed = RunPrivIm(graph, graph, crashing, 77);
  fault::ClearFaults();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);

  // Resume and finish.
  obs::GlobalMetrics().ResetAll();
  PrivImOptions resuming = crashing;
  resuming.resume = true;
  Result<PrivImResult> resumed = RunPrivIm(graph, graph, resuming, 77);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed_from_iteration, 5);

  const RunOutcome got = Outcome(resumed.value());
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.epsilon_trajectory, want.epsilon_trajectory);
  EXPECT_EQ(got.mean_loss_first, want.mean_loss_first);
  EXPECT_EQ(got.mean_loss_last, want.mean_loss_last);
  EXPECT_EQ(got.metrics, want.metrics);

  std::filesystem::remove_all(uninterrupted.checkpoint_dir);
  std::filesystem::remove_all(crashing.checkpoint_dir);
}

TEST_P(CheckpointResumeTest, CrashAtEveryIterationResumesIdentically) {
  const Graph graph = MakeTrainGraph();
  PrivImOptions base = SmallOptions();
  base.iterations = 6;

  obs::GlobalMetrics().ResetAll();
  PrivImOptions clean = base;
  clean.checkpoint_dir =
      FreshDir("sweep_ref_" + std::to_string(GetParam()));
  Result<PrivImResult> reference = RunPrivIm(graph, graph, clean, 31);
  ASSERT_TRUE(reference.ok());
  const RunOutcome want = Outcome(reference.value());

  for (int64_t crash_at = 0; crash_at < base.iterations - 1; ++crash_at) {
    // Snapshots record the live counters, so clear the previous sub-run's
    // residue before each crash (a real process starts from zero).
    obs::GlobalMetrics().ResetAll();
    PrivImOptions crashing = base;
    crashing.checkpoint_dir = FreshDir(
        "sweep_" + std::to_string(GetParam()) + "_" +
        std::to_string(crash_at));
    fault::ArmIterationFault(crash_at, fault::Mode::kStatus);
    Result<PrivImResult> crashed = RunPrivIm(graph, graph, crashing, 31);
    fault::ClearFaults();
    ASSERT_FALSE(crashed.ok()) << "crash_at=" << crash_at;

    obs::GlobalMetrics().ResetAll();
    PrivImOptions resuming = crashing;
    resuming.resume = true;
    Result<PrivImResult> resumed = RunPrivIm(graph, graph, resuming, 31);
    ASSERT_TRUE(resumed.ok())
        << "crash_at=" << crash_at << ": " << resumed.status().ToString();
    EXPECT_EQ(resumed.value().resumed_from_iteration, crash_at + 1);

    const RunOutcome got = Outcome(resumed.value());
    EXPECT_EQ(got.weights, want.weights) << "crash_at=" << crash_at;
    EXPECT_EQ(got.seeds, want.seeds) << "crash_at=" << crash_at;
    EXPECT_EQ(got.metrics, want.metrics) << "crash_at=" << crash_at;
    std::filesystem::remove_all(crashing.checkpoint_dir);
  }
  std::filesystem::remove_all(clean.checkpoint_dir);
}

TEST_P(CheckpointResumeTest, ResumeOfCompletedRunIsANoOpWithSameResult) {
  const Graph graph = MakeTrainGraph();
  PrivImOptions options = SmallOptions();
  options.checkpoint_dir =
      FreshDir("noop_" + std::to_string(GetParam()));

  obs::GlobalMetrics().ResetAll();
  Result<PrivImResult> first = RunPrivIm(graph, graph, options, 13);
  ASSERT_TRUE(first.ok());
  const RunOutcome want = Outcome(first.value());

  obs::GlobalMetrics().ResetAll();
  options.resume = true;
  Result<PrivImResult> again = RunPrivIm(graph, graph, options, 13);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().resumed_from_iteration, options.iterations);
  const RunOutcome got = Outcome(again.value());
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.seeds, want.seeds);
  EXPECT_EQ(got.metrics, want.metrics);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_P(CheckpointResumeTest, ResumeRefusesDifferentSeedOrOptions) {
  const Graph graph = MakeTrainGraph();
  PrivImOptions options = SmallOptions();
  options.iterations = 4;
  options.checkpoint_dir =
      FreshDir("refuse_" + std::to_string(GetParam()));
  ASSERT_TRUE(RunPrivIm(graph, graph, options, 7).ok());

  options.resume = true;
  // Different seed.
  Result<PrivImResult> other_seed = RunPrivIm(graph, graph, options, 8);
  EXPECT_EQ(other_seed.status().code(), StatusCode::kFailedPrecondition);
  // Different training hyperparameter.
  PrivImOptions other_lr = options;
  other_lr.learning_rate = 0.123f;
  EXPECT_EQ(RunPrivIm(graph, graph, other_lr, 7).status().code(),
            StatusCode::kFailedPrecondition);
  // Different training graph.
  Rng rng(99);
  Result<Graph> other = BarabasiAlbert(220, 4, &rng);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(RunPrivIm(WithWeightedCascadeWeights(other.value()), graph,
                      options, 7)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_P(CheckpointResumeTest, NonPrivateRunsResumeToo) {
  const Graph graph = MakeTrainGraph();
  PrivImOptions base = SmallOptions();
  base.epsilon = 0.0;  // non-private baseline
  base.iterations = 6;

  obs::GlobalMetrics().ResetAll();
  PrivImOptions clean = base;
  clean.checkpoint_dir =
      FreshDir("nonpriv_ref_" + std::to_string(GetParam()));
  Result<PrivImResult> reference = RunPrivIm(graph, graph, clean, 3);
  ASSERT_TRUE(reference.ok());

  PrivImOptions crashing = base;
  crashing.checkpoint_dir =
      FreshDir("nonpriv_crash_" + std::to_string(GetParam()));
  fault::ArmIterationFault(2, fault::Mode::kStatus);
  ASSERT_FALSE(RunPrivIm(graph, graph, crashing, 3).ok());
  fault::ClearFaults();

  obs::GlobalMetrics().ResetAll();
  crashing.resume = true;
  Result<PrivImResult> resumed = RunPrivIm(graph, graph, crashing, 3);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(FlattenWeights(*resumed.value().model),
            FlattenWeights(*reference.value().model));
  EXPECT_TRUE(resumed.value().epsilon_trajectory.empty());
  std::filesystem::remove_all(clean.checkpoint_dir);
  std::filesystem::remove_all(crashing.checkpoint_dir);
}

INSTANTIATE_TEST_SUITE_P(Threads, CheckpointResumeTest,
                         ::testing::Values(1, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace privim
