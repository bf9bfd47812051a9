// train / train-trace: PrivIM* training, timed and traced.
//
//   train --graph G --iterations T [--sampling-rate q] [--epsilon e] [--k k]
//         [--seed s] [--threads t] [--loads L] [--coverage 0|1]
//         [--model-out M]
//     Loads the edge list L times (set-up samples), then times one
//     RunPrivIm. Checks its outputs: Status OK, achieved epsilon <= target,
//     empirical max occurrence <= M, k distinct in-range seeds. Reports the
//     model's byte digest so run.py can require identical models across a
//     run's repetitions.
//
//   train-trace (same flags) [--pairs P] [--replay-iterations R]
//     P times, times one RunPrivIm (the reference) and composes its phases
//     in order with the same seeded Rng and spans around each call into the
//     library (extraction, accounting, DP-SGD, selection); odd pairs compose
//     first. Every composed model and seed set must equal RunPrivIm's. Each
//     pair's walls and phase sum are reported, so run.py can compare the
//     phases with RunPrivIm's wall and show work the composition leaves
//     out. A serial, arena-scoped replay of the first R iterations then
//     times forward, backward, clip, noise and reduce+step per batch and
//     must reproduce TrainDpGnn's parameters at one thread bit for bit.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "privim/common/thread_pool.h"
#include "privim/core/loss.h"
#include "privim/core/pipeline.h"
#include "privim/core/trainer.h"
#include "privim/dp/mechanisms.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/dp/sensitivity.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/graph_io.h"
#include "privim/im/celf.h"
#include "privim/im/seed_selection.h"
#include "privim/im/spread_oracle.h"
#include "privim/nn/arena.h"
#include "privim/nn/autograd.h"
#include "privim/nn/optimizer.h"
#include "privim/obs/metrics.h"
#include "privim/sampling/dual_stage.h"

namespace perfbench {
namespace {

using privim::Graph;
using privim::NodeId;
using privim::PrivImOptions;
using privim::Status;

PrivImOptions OptionsFrom(const Args& args) {
  PrivImOptions options;  // GRAT 3x32, n=40, M=6, B=32 (paper defaults)
  options.iterations = args.Int("iterations", 800);
  options.sampling_rate = args.Double("sampling-rate", 0.0);
  options.epsilon = args.Double("epsilon", 4.0);
  options.seed_set_size = args.Int("k", 50);
  return options;
}

// RunPrivIm's q: the explicit rate, else 256 / |V|.
double SamplingRate(const PrivImOptions& options, int64_t nodes) {
  if (options.sampling_rate > 0.0) return std::min(1.0, options.sampling_rate);
  return std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(1, nodes)));
}

// The output checks every training run must pass; failures are joined.
std::string CheckRun(const privim::PrivImResult& result,
                     const PrivImOptions& options, int64_t nodes) {
  std::string failures;
  const auto fail = [&failures](const std::string& what) {
    failures += failures.empty() ? what : "; " + what;
  };
  if (!(result.achieved_epsilon <= options.epsilon)) {
    fail("achieved epsilon " + std::to_string(result.achieved_epsilon) +
         " exceeds target " + std::to_string(options.epsilon));
  }
  if (result.empirical_max_occurrence > options.frequency_threshold) {
    fail("empirical max occurrence " +
         std::to_string(result.empirical_max_occurrence) + " exceeds M=" +
         std::to_string(options.frequency_threshold));
  }
  const std::set<NodeId> distinct(result.seeds.begin(), result.seeds.end());
  const bool in_range =
      std::all_of(result.seeds.begin(), result.seeds.end(),
                  [nodes](NodeId v) { return v >= 0 && v < nodes; });
  if (static_cast<int64_t>(result.seeds.size()) != options.seed_set_size ||
      static_cast<int64_t>(distinct.size()) != options.seed_set_size ||
      !in_range) {
    fail("released seeds are not k distinct in-range nodes");
  }
  return failures;
}

std::string SeedList(const std::vector<NodeId>& seeds) {
  std::string out;
  for (const NodeId v : seeds) {
    if (!out.empty()) out += ",";
    out += std::to_string(v);
  }
  return out;
}

// Loads `path` `loads` times and returns the last graph with every timing.
privim::Result<Graph> TimedLoads(const std::string& path, int64_t loads,
                                 std::vector<double>* seconds) {
  privim::Result<Graph> graph = Status::InvalidArgument("no load");
  for (int64_t i = 0; i < std::max<int64_t>(1, loads); ++i) {
    const double start = Now();
    graph = privim::LoadEdgeList(path, /*undirected=*/true);
    seconds->push_back(Now() - start);
    if (!graph.ok()) return graph.status();
  }
  return graph;
}

}  // namespace

int TrainMain(const Args& args) {
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(args.Int("threads", 4)));
  const PrivImOptions options = OptionsFrom(args);
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));

  std::vector<double> load_s;
  privim::Result<Graph> graph =
      TimedLoads(args.Str("graph", ""), args.Int("loads", 1), &load_s);
  if (!graph.ok()) return Fail(graph.status());

  const double start = Now();
  privim::Result<privim::PrivImResult> run =
      privim::RunPrivIm(graph.value(), graph.value(), options, seed);
  const double wall = Now() - start;
  if (!run.ok()) return Fail(run.status());

  const std::string bytes = ModelBytes(*run->model);
  if (const std::string path = args.Str("model-out", ""); !path.empty()) {
    if (Status s = privim::SaveGnnModel(*run->model, path); !s.ok()) {
      return Fail(s);
    }
  }
  JsonOut out;
  out.Nums("load_s", load_s)
      .Num("wall_s", wall)
      .Num("peak_rss_mb", PeakRssMb())
      .Str("model_digest", Hex(Fnv1a(bytes)))
      .Str("seeds", SeedList(run->seeds))
      .Num("achieved_epsilon", run->achieved_epsilon)
      .Int("max_occurrence", run->empirical_max_occurrence)
      .Int("subgraphs", run->container_size)
      .Str("failures", CheckRun(run.value(), options, graph->num_nodes()));
  if (args.Int("coverage", 0) != 0) {
    // w=1, j=1 coverage of the released seeds as a share of CELF's.
    const privim::DeterministicCoverageOracle oracle(graph.value(), 1);
    privim::Result<privim::SeedSelectionResult> celf =
        privim::CelfGreedy(oracle, options.seed_set_size);
    if (!celf.ok()) return Fail(celf.status());
    out.Num("coverage_pct", privim::CoverageRatioPercent(
                                oracle.Spread(run->seeds), celf->spread));
  }
  return Emit(out);
}

namespace {

// One composition of RunPrivIm's phases with RunPrivIm's Rng stream, with a
// span around each call into the library.
struct Composed {
  privim::DualStageResult sampled;
  int64_t max_occurrence = 0;
  int64_t occurrence_bound = 0;
  double sigma = 0.0;
  double epsilon = 0.0;
  size_t trajectory_size = 0;
  std::unique_ptr<privim::GnnModel> model;
  std::unique_ptr<privim::GnnModel> initial;  ///< parameters before DP-SGD
  privim::RngState train_rng_state;           ///< the Rng as DP-SGD starts
  privim::TrainStats stats;
  std::vector<NodeId> seeds;
  double arena_bytes = 0.0;
  // Phase spans in seconds; `wall` runs from the first span's start to the
  // last one's end, without the snapshot taken for the replay.
  double extract_s = 0.0;
  double account_s = 0.0;
  double train_s = 0.0;
  double select_forward_s = 0.0;
  double select_topk_s = 0.0;
  double wall = 0.0;

  double Phases() const {
    return extract_s + account_s + train_s + select_forward_s + select_topk_s;
  }
};

privim::DpSgdOptions TrainingOptions(const PrivImOptions& options,
                                     double sigma, int64_t occurrence_bound) {
  privim::DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = sigma;
  training.occurrence_bound = occurrence_bound;
  training.optimizer = options.optimizer;
  training.loss = options.loss;
  return training;
}

privim::Result<Composed> Compose(const Graph& graph,
                                 const PrivImOptions& options, uint64_t seed) {
  Composed c;
  privim::Rng rng(seed);
  const double composed_start = Now();

  double start = Now();
  privim::DualStageOptions dual;
  dual.stage1.subgraph_size = options.subgraph_size;
  dual.stage1.restart_probability = options.restart_probability;
  dual.stage1.decay = options.decay;
  dual.stage1.sampling_rate = SamplingRate(options, graph.num_nodes());
  dual.stage1.walk_length = options.walk_length;
  dual.stage1.frequency_threshold = options.frequency_threshold;
  dual.boundary_divisor = options.boundary_divisor;
  dual.enable_boundary_stage = true;
  privim::Result<privim::DualStageResult> sampled =
      privim::DualStageSampling(graph, dual, &rng);
  if (!sampled.ok()) return sampled.status();
  c.sampled = std::move(sampled).value();
  const privim::SubgraphContainer& container = c.sampled.container;
  if (container.empty()) {
    return Status::FailedPrecondition("extraction produced nothing");
  }
  c.max_occurrence = container.MaxOccurrence(graph.num_nodes());
  c.extract_s = Now() - start;
  c.occurrence_bound =
      std::min<int64_t>(options.frequency_threshold, container.size());

  start = Now();
  const double delta = 1.0 / static_cast<double>(graph.num_nodes());
  privim::SubsampledGaussianConfig accounting;
  accounting.container_size = container.size();
  accounting.batch_size = std::min<int64_t>(options.batch_size,
                                            container.size());
  accounting.occurrence_bound = c.occurrence_bound;
  privim::Result<double> sigma = privim::CalibrateNoiseMultiplier(
      accounting, options.iterations, delta, options.epsilon);
  if (!sigma.ok()) return sigma.status();
  c.sigma = sigma.value();
  accounting.noise_multiplier = c.sigma;
  c.epsilon =
      privim::ComputeEpsilon(accounting, options.iterations, delta).epsilon;
  c.trajectory_size =
      privim::EpsilonTrajectory(accounting, options.iterations, delta).size();
  c.account_s = Now() - start;

  start = Now();
  privim::Result<std::unique_ptr<privim::GnnModel>> created =
      privim::CreateGnnModel(options.gnn, &rng);
  if (!created.ok()) return created.status();
  c.model = std::move(created).value();
  // Snapshot for the replay check, taken outside the timed phase.
  const double snapshot_start = Now();
  privim::Rng scratch_rng(0);
  c.initial = privim::CreateGnnModel(options.gnn, &scratch_rng).value();
  PRIVIM_RETURN_NOT_OK(c.initial->CopyParametersFrom(*c.model));
  c.train_rng_state = rng.SaveState();
  const double snapshot_s = Now() - snapshot_start;

  privim::Result<privim::TrainStats> stats = privim::TrainDpGnn(
      c.model.get(), container,
      TrainingOptions(options, c.sigma, c.occurrence_bound), &rng);
  if (!stats.ok()) return stats.status();
  c.stats = stats.value();
  c.train_s = Now() - start - snapshot_s;
  c.arena_bytes =
      privim::obs::GlobalMetrics().GetGauge("nn.arena.bytes_allocated")
          ->Value();

  {
    start = Now();
    const privim::GraphContext eval_ctx = privim::GraphContext::Build(graph);
    const privim::Tensor eval_features =
        privim::BuildNodeFeatures(graph, options.gnn.input_dim);
    const privim::Variable scores =
        c.model->Forward(eval_ctx, privim::Variable(eval_features));
    c.select_forward_s = Now() - start;
    start = Now();
    c.seeds = privim::TopKSeeds(scores.value(), options.seed_set_size);
    c.select_topk_s = Now() - start;
    start = Now();
  }
  // Freeing the eval-graph forward's buffers is inside RunPrivIm's wall too;
  // it counts towards the forward that allocated them.
  c.select_forward_s += Now() - start;
  c.wall = Now() - composed_start - snapshot_s;
  return c;
}

}  // namespace

int TrainTraceMain(const Args& args) {
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(args.Int("threads", 4)));
  const PrivImOptions options = OptionsFrom(args);
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const int64_t replay_iterations =
      std::min(args.Int("replay-iterations", 20), options.iterations);
  const int64_t pairs = std::max<int64_t>(1, args.Int("pairs", 4));

  std::vector<double> load_s;
  privim::Result<Graph> loaded =
      TimedLoads(args.Str("graph", ""), args.Int("loads", 1), &load_s);
  if (!loaded.ok()) return Fail(loaded.status());
  const Graph& graph = loaded.value();

  std::string failures;
  const auto fail = [&failures](const std::string& what) {
    if (failures.find(what) == std::string::npos) {
      failures += failures.empty() ? what : "; " + what;
    }
  };
  // The shipped pipeline (untraced) and the composition, alternated so the
  // host's drift reaches both alike. The first composition feeds the replay.
  std::vector<double> reference_wall, composed_wall, phases;
  std::vector<double> extract_s, account_s, train_s, ctx_setup_s,
      grads_per_s, select_forward_s, select_topk_s;
  std::optional<Composed> first;
  for (int64_t pair = 0; pair < pairs; ++pair) {
    // Odd pairs compose first, so running second in a pair favours
    // neither side.
    std::optional<privim::Result<Composed>> early;
    if (pair % 2 == 1) early.emplace(Compose(graph, options, seed));
    const double start = Now();
    privim::Result<privim::PrivImResult> reference =
        privim::RunPrivIm(graph, graph, options, seed);
    reference_wall.push_back(Now() - start);
    if (!reference.ok()) return Fail(reference.status());
    if (pair == 0) {
      const std::string checked =
          CheckRun(reference.value(), options, graph.num_nodes());
      if (!checked.empty()) fail(checked);
    }

    privim::Result<Composed> composed =
        early.has_value() ? std::move(*early) : Compose(graph, options, seed);
    if (!composed.ok()) return Fail(composed.status());
    const Composed& c = composed.value();
    if (ModelBytes(*c.model) != ModelBytes(*reference->model) ||
        c.seeds != reference->seeds ||
        c.epsilon != reference->achieved_epsilon ||
        c.max_occurrence != reference->empirical_max_occurrence ||
        c.trajectory_size != reference->epsilon_trajectory.size()) {
      fail("composed phases do not reproduce RunPrivIm's model and seeds");
    }
    composed_wall.push_back(c.wall);
    phases.push_back(c.Phases());
    extract_s.push_back(c.extract_s);
    account_s.push_back(c.account_s);
    train_s.push_back(c.train_s);
    ctx_setup_s.push_back(c.stats.setup_seconds);
    grads_per_s.push_back(
        static_cast<double>(options.iterations * options.batch_size) /
        c.stats.training_seconds);
    select_forward_s.push_back(c.select_forward_s);
    select_topk_s.push_back(c.select_topk_s);
    if (pair == 0) first = std::move(composed).value();
  }
  const privim::SubgraphContainer& container = first->sampled.container;
  const int64_t occurrence_bound = first->occurrence_bound;
  const privim::DpSgdOptions training =
      TrainingOptions(options, first->sigma, occurrence_bound);

  // Reference for the replay: TrainDpGnn itself, serial, first R iterations.
  privim::DpSgdOptions short_run = training;
  short_run.iterations = replay_iterations;
  short_run.parallel = false;
  privim::Rng scratch_rng(0);
  std::unique_ptr<privim::GnnModel> reference_model =
      privim::CreateGnnModel(options.gnn, &scratch_rng).value();
  std::unique_ptr<privim::GnnModel> replay_model =
      privim::CreateGnnModel(options.gnn, &scratch_rng).value();
  if (Status s = reference_model->CopyParametersFrom(*first->initial);
      !s.ok()) {
    return Fail(s);
  }
  if (Status s = replay_model->CopyParametersFrom(*first->initial); !s.ok()) {
    return Fail(s);
  }
  privim::Rng reference_rng(0);
  if (Status s = reference_rng.RestoreState(first->train_rng_state);
      !s.ok()) {
    return Fail(s);
  }
  if (privim::Result<privim::TrainStats> s = privim::TrainDpGnn(
          reference_model.get(), container, short_run, &reference_rng);
      !s.ok()) {
    return Fail(s.status());
  }

  // The replay: Alg. 2's loop written out with a span around each call.
  privim::Rng replay_rng(0);
  if (Status s = replay_rng.RestoreState(first->train_rng_state); !s.ok()) {
    return Fail(s);
  }
  const std::vector<privim::Variable>& params = replay_model->parameters();
  const size_t param_count =
      static_cast<size_t>(privim::ParameterCount(params));
  const double noise_stddev =
      first->sigma *
      privim::NodeSensitivity(options.clip_bound, occurrence_bound);
  privim::SgdOptimizer optimizer(params, options.learning_rate);
  privim::nn::MemoryPools pools;
  std::vector<std::optional<privim::GraphContext>> contexts(
      static_cast<size_t>(container.size()));
  std::vector<privim::Tensor> features(static_cast<size_t>(container.size()));
  std::vector<std::vector<float>> grads;
  std::vector<float> summed(param_count), mean_grad(param_count);
  std::vector<double> forward_ms, backward_ms, clip_ms, noise_ms, reduce_ms;
  int64_t clipped = 0, examples = 0;
  for (int64_t t = 0; t < replay_iterations; ++t) {
    const std::vector<int64_t> batch =
        container.SampleBatch(options.batch_size, &replay_rng);
    for (const int64_t index : batch) {
      std::optional<privim::GraphContext>& ctx =
          contexts[static_cast<size_t>(index)];
      if (!ctx.has_value()) {
        const privim::Subgraph& sub = container.at(index);
        ctx.emplace(privim::GraphContext::Build(sub.local));
        features[static_cast<size_t>(index)] = privim::BuildNodeFeatures(
            sub.local, options.gnn.input_dim, &sub.global_ids);
      }
    }
    grads.resize(batch.size());
    double fwd = 0, bwd = 0, clip = 0;
    {
      privim::nn::ArenaScope scope(&pools);
      for (size_t pos = 0; pos < batch.size(); ++pos) {
        const size_t index = static_cast<size_t>(batch[pos]);
        for (const privim::Variable& p : params) {
          const_cast<privim::Variable&>(p).ZeroGrad();
        }
        double t0 = Now();
        privim::Result<privim::Variable> loss = privim::InfluenceLoss(
            *replay_model, *contexts[index], features[index], options.loss);
        if (!loss.ok()) return Fail(loss.status());
        double t1 = Now();
        loss.value().Backward();
        double t2 = Now();
        privim::FlattenGradientsInto(params, &grads[pos]);
        const double norm = privim::ClipL2(&grads[pos], options.clip_bound);
        double t3 = Now();
        fwd += t1 - t0;
        bwd += t2 - t1;
        clip += t3 - t2;
        clipped += norm > options.clip_bound ? 1 : 0;
        ++examples;
      }
    }
    double t4 = Now();
    std::fill(summed.begin(), summed.end(), 0.0f);
    for (const std::vector<float>& grad : grads) {
      for (size_t i = 0; i < param_count; ++i) summed[i] += grad[i];
    }
    double t5 = Now();
    if (noise_stddev > 0.0) {
      privim::AddGaussianNoise(&summed, noise_stddev, &replay_rng);
    }
    double t6 = Now();
    const float inv_batch = 1.0f / static_cast<float>(options.batch_size);
    for (size_t i = 0; i < param_count; ++i) {
      mean_grad[i] = summed[i] * inv_batch;
    }
    optimizer.Step(mean_grad);
    double t7 = Now();
    forward_ms.push_back(fwd * 1e3);
    backward_ms.push_back(bwd * 1e3);
    clip_ms.push_back(clip * 1e3);
    noise_ms.push_back((t6 - t5) * 1e3);
    reduce_ms.push_back(((t5 - t4) + (t7 - t6)) * 1e3);
  }
  if (ModelBytes(*replay_model) != ModelBytes(*reference_model)) {
    fail("serial replay does not reproduce TrainDpGnn's parameters");
  }
  if (const std::string path = args.Str("model-out", ""); !path.empty()) {
    if (Status s = privim::SaveGnnModel(*first->model, path); !s.ok()) {
      return Fail(s);
    }
  }

  JsonOut out;
  out.Nums("graph.load_s", load_s)
      .Nums("sampling.extract_s", extract_s)
      .Int("sampling.subgraphs", container.size())
      .Num("sampling.stage2_share",
           static_cast<double>(first->sampled.stage2_subgraphs) /
               static_cast<double>(container.size()))
      .Int("sampling.max_occurrence", first->max_occurrence)
      .Nums("dp.account_s", account_s)
      .Nums("core.train_s", train_s)
      .Nums("core.ctx_setup_s", ctx_setup_s)
      .Nums("core.subgraph_grads_per_s", grads_per_s)
      .Nums("nn.forward_ms", forward_ms)
      .Nums("nn.backward_ms", backward_ms)
      .Nums("dp.clip_ms", clip_ms)
      .Nums("dp.noise_ms", noise_ms)
      .Num("dp.clip_rate", static_cast<double>(clipped) /
                               static_cast<double>(std::max<int64_t>(1, examples)))
      .Nums("core.reduce_step_ms", reduce_ms)
      .Num("nn.arena_bytes", first->arena_bytes)
      .Nums("gnn.select_forward_s", select_forward_s)
      .Nums("im.select_topk_s", select_topk_s)
      .Nums("train_wall_s", reference_wall)
      .Nums("composed_wall_s", composed_wall)
      .Nums("phases_s", phases)
      .Str("model_digest", Hex(Fnv1a(ModelBytes(*first->model))))
      .Str("failures", failures);
  return Emit(out);
}

}  // namespace perfbench
