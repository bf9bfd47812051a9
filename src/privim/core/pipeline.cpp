#include "privim/core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "privim/ckpt/checkpoint.h"
#include "privim/ckpt/io.h"
#include "privim/common/logging.h"
#include "privim/common/timer.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/dp/sensitivity.h"
#include "privim/graph/projection.h"
#include "privim/im/seed_selection.h"
#include "privim/nn/infer/engine.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"
#include "privim/sampling/dual_stage.h"
#include "privim/sampling/rwr_sampler.h"

namespace privim {

const char* PrivImVariantToString(PrivImVariant variant) {
  switch (variant) {
    case PrivImVariant::kNaive:
      return "PrivIM";
    case PrivImVariant::kScsOnly:
      return "PrivIM+SCS";
    case PrivImVariant::kDualStage:
      return "PrivIM*";
  }
  return "?";
}

Status PrivImOptions::Validate() const {
  if (gnn.input_dim < 1 || gnn.hidden_dim < 1 || gnn.num_layers < 1) {
    return Status::InvalidArgument(
        "gnn dimensions (input_dim, hidden_dim, num_layers) must be >= 1");
  }
  if (subgraph_size < 2) {
    return Status::InvalidArgument("subgraph_size must be >= 2");
  }
  if (frequency_threshold < 1) {
    return Status::InvalidArgument("frequency_threshold must be >= 1");
  }
  if (decay < 0.0 || !std::isfinite(decay)) {
    return Status::InvalidArgument(
        "decay (mu) must be finite and >= 0 (0 samples uniformly)");
  }
  if (!(restart_probability > 0.0) || restart_probability > 1.0) {
    return Status::InvalidArgument(
        "restart_probability (tau) must be in (0, 1]");
  }
  if (!std::isfinite(sampling_rate) || sampling_rate > 1.0) {
    return Status::InvalidArgument(
        "sampling_rate (q) must be finite and <= 1 (<= 0 selects the 256/|V| "
        "default)");
  }
  if (walk_length < 1) {
    return Status::InvalidArgument("walk_length must be >= 1");
  }
  if (theta < 1) return Status::InvalidArgument("theta must be >= 1");
  if (boundary_divisor < 1) {
    return Status::InvalidArgument("boundary_divisor must be >= 1");
  }
  if (batch_size < 1) return Status::InvalidArgument("batch_size must be >= 1");
  if (iterations < 1) return Status::InvalidArgument("iterations must be >= 1");
  if (!(learning_rate > 0.0f) || !std::isfinite(learning_rate)) {
    return Status::InvalidArgument(
        "learning_rate must be a positive finite number");
  }
  if (!(clip_bound > 0.0f) || !std::isfinite(clip_bound)) {
    return Status::InvalidArgument(
        "clip_bound must be a positive finite number");
  }
  // epsilon <= 0 or +inf means "train without noise"; only NaN is
  // unanswerable. delta is a probability; delta <= 0 selects 1/|V_train|.
  if (std::isnan(epsilon)) {
    return Status::InvalidArgument("epsilon must not be NaN");
  }
  if (std::isnan(delta) || delta >= 1.0) {
    return Status::InvalidArgument("delta must be < 1 (a failure probability)");
  }
  if (seed_set_size < 1) {
    return Status::InvalidArgument("seed_set_size must be >= 1");
  }
  if (checkpoint_every < 1) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  if (checkpoint_keep < 1) {
    return Status::InvalidArgument("checkpoint_keep must be >= 1");
  }
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "resume requires a checkpoint directory (--resume requires "
        "--checkpoint-dir DIR)");
  }
  return Status::OK();
}

namespace {

double EffectiveSamplingRate(const PrivImOptions& options,
                             int64_t train_nodes) {
  if (options.sampling_rate > 0.0) {
    return std::min(1.0, options.sampling_rate);
  }
  // Paper default: q = 256 / |V_train|.
  return std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(
                                   1, train_nodes)));
}

// Binds a snapshot to the exact run it was taken from: every option that
// influences extraction, accounting or training, the RNG seed, and the
// structure + weights of the training graph. A resumed run with any of
// these changed would continue a *different* privacy analysis, so Resume
// refuses on mismatch.
uint64_t FingerprintRun(const Graph& train_graph, const PrivImOptions& options,
                        uint64_t seed) {
  ckpt::ByteWriter w;
  w.WriteU64(seed);
  w.WriteU8(static_cast<uint8_t>(options.variant));
  w.WriteU8(static_cast<uint8_t>(options.gnn.kind));
  w.WriteI64(options.gnn.input_dim);
  w.WriteI64(options.gnn.hidden_dim);
  w.WriteI64(options.gnn.num_layers);
  w.WriteF32(options.gnn.leaky_slope);
  w.WriteI64(options.subgraph_size);
  w.WriteI64(options.frequency_threshold);
  w.WriteF64(options.decay);
  w.WriteF64(options.restart_probability);
  w.WriteF64(options.sampling_rate);
  w.WriteI64(options.walk_length);
  w.WriteI64(options.theta);
  w.WriteI64(options.boundary_divisor);
  w.WriteI64(options.batch_size);
  w.WriteI64(options.iterations);
  w.WriteF32(options.learning_rate);
  w.WriteF32(options.clip_bound);
  w.WriteU8(static_cast<uint8_t>(options.optimizer));
  w.WriteI64(options.loss.diffusion_steps);
  w.WriteF32(options.loss.lambda);
  w.WriteU8(static_cast<uint8_t>(options.loss.phi));
  w.WriteF64(options.epsilon);
  w.WriteF64(options.delta);
  w.WriteU64(ckpt::FingerprintGraph(train_graph));
  return ckpt::Fnv1a64(w.bytes());
}

}  // namespace

Result<PrivImResult> RunPrivIm(const Graph& train_graph,
                               const Graph& eval_graph,
                               const PrivImOptions& options, uint64_t seed) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (train_graph.num_nodes() < options.subgraph_size) {
    return Status::InvalidArgument(
        "train graph smaller than one subgraph");
  }

  Rng rng(seed);
  PrivImResult result;
  obs::TraceSpan pipeline_span("pipeline/run_privim");

  const bool checkpointing = !options.checkpoint_dir.empty();
  const uint64_t fingerprint =
      checkpointing ? FingerprintRun(train_graph, options, seed) : 0;

  // ---- Resume: restore the complete training state from the latest
  // snapshot. A corrupt latest snapshot is a hard error — falling back to
  // an older snapshot or a fresh run would re-spend the privacy budget its
  // iterations already consumed. No snapshot at all means a fresh run.
  bool resumed = false;
  ckpt::LoadedSnapshot snapshot;
  if (options.resume) {
    Result<std::string> latest =
        ckpt::CheckpointManager::LatestSnapshotPath(options.checkpoint_dir);
    if (latest.ok()) {
      Result<ckpt::LoadedSnapshot> loaded =
          ckpt::CheckpointManager::Load(latest.value());
      if (!loaded.ok()) return loaded.status();
      if (loaded.value().config_fingerprint != fingerprint) {
        return Status::FailedPrecondition(
            "snapshot " + latest.value() +
            " was taken under a different configuration, seed or training "
            "graph; refusing to resume");
      }
      snapshot = std::move(loaded).value();
      resumed = true;
      result.resumed_from_iteration = snapshot.next_iteration;
      PRIVIM_LOG(Info) << "resuming from " << latest.value() << " (iteration "
                       << snapshot.next_iteration << "/"
                       << snapshot.total_iterations << ")";
    } else if (latest.status().code() != StatusCode::kNotFound) {
      return latest.status();
    }
  }

  // ---- Module 1: subgraph extraction ----------------------------------
  WallTimer sampling_timer;
  SubgraphContainer container;
  std::vector<int64_t> extraction_frequency;
  const double q = EffectiveSamplingRate(options, train_graph.num_nodes());

  if (resumed) {
    // The snapshot carries the extracted container and the sampler's
    // frequency table, so the SCS saturation state survives the restart
    // and extraction (which consumes RNG draws) is skipped entirely.
    container = std::move(snapshot.container);
    extraction_frequency = std::move(snapshot.sampler.frequency);
    result.occurrence_bound = snapshot.accounting.occurrence_bound;
  } else {
    obs::TraceSpan extraction_span("pipeline/extraction");
    if (options.variant == PrivImVariant::kNaive) {
      Result<Graph> projected =
          ProjectInDegree(train_graph, options.theta, &rng);
      if (!projected.ok()) return projected.status();
      RwrSamplerOptions rwr;
      rwr.subgraph_size = options.subgraph_size;
      rwr.restart_probability = options.restart_probability;
      rwr.sampling_rate = q;
      rwr.walk_length = options.walk_length;
      rwr.hop_limit = options.gnn.num_layers;  // r-layer GNN -> r-hop ball
      Result<SubgraphContainer> extracted =
          ExtractSubgraphsRwr(projected.value(), rwr, &rng);
      if (!extracted.ok()) return extracted.status();
      container = std::move(extracted).value();
      result.occurrence_bound =
          NaiveOccurrenceBound(options.theta, options.gnn.num_layers);
    } else {
      DualStageOptions dual;
      dual.stage1.subgraph_size = options.subgraph_size;
      dual.stage1.restart_probability = options.restart_probability;
      dual.stage1.decay = options.decay;
      dual.stage1.sampling_rate = q;
      dual.stage1.walk_length = options.walk_length;
      dual.stage1.frequency_threshold = options.frequency_threshold;
      dual.boundary_divisor = options.boundary_divisor;
      dual.enable_boundary_stage =
          options.variant == PrivImVariant::kDualStage;
      Result<DualStageResult> sampled =
          DualStageSampling(train_graph, dual, &rng);
      if (!sampled.ok()) return sampled.status();
      container = std::move(sampled.value().container);
      extraction_frequency = std::move(sampled.value().frequency);
      result.occurrence_bound = options.frequency_threshold;  // N_g* = M
    }
  }
  result.sampling_seconds = sampling_timer.ElapsedSeconds();

  if (container.empty()) {
    return Status::FailedPrecondition(
        "subgraph extraction produced no subgraphs; increase sampling_rate "
        "or walk_length, or decrease subgraph_size");
  }
  result.container_size = container.size();
  result.empirical_max_occurrence =
      resumed ? snapshot.sampler.empirical_max_occurrence
              : container.MaxOccurrence(train_graph.num_nodes());
  // A node can never occur more often than there are subgraphs.
  result.occurrence_bound =
      std::min(result.occurrence_bound, result.container_size);

  // ---- Module 2: privacy accounting ------------------------------------
  const bool is_private =
      options.epsilon > 0.0 && std::isfinite(options.epsilon);
  const double effective_delta =
      options.delta > 0.0
          ? options.delta
          : 1.0 / static_cast<double>(train_graph.num_nodes());
  if (resumed && is_private) {
    // The snapshot is the authoritative record of the budget already
    // spent; recomputing it here would silently redo the calibration the
    // spent epsilon was derived from.
    result.noise_multiplier = snapshot.accounting.noise_multiplier;
    result.achieved_epsilon = snapshot.accounting.achieved_epsilon;
    result.epsilon_trajectory = snapshot.accounting.epsilon_trajectory;
  } else if (is_private) {
    obs::TraceSpan accounting_span("pipeline/accounting");
    const double delta = effective_delta;
    SubsampledGaussianConfig accounting;
    accounting.container_size = result.container_size;
    accounting.batch_size =
        std::min<int64_t>(options.batch_size, result.container_size);
    accounting.occurrence_bound = result.occurrence_bound;
    Result<double> sigma = CalibrateNoiseMultiplier(
        accounting, options.iterations, delta, options.epsilon);
    if (!sigma.ok()) return sigma.status();
    result.noise_multiplier = sigma.value();
    accounting.noise_multiplier = result.noise_multiplier;
    result.achieved_epsilon =
        ComputeEpsilon(accounting, options.iterations, delta).epsilon;
    result.epsilon_trajectory =
        EpsilonTrajectory(accounting, options.iterations, delta);
    PRIVIM_LOG(Info) << PrivImVariantToString(options.variant)
                     << ": m=" << result.container_size
                     << " N_g=" << result.occurrence_bound
                     << " sigma=" << result.noise_multiplier
                     << " eps=" << result.achieved_epsilon;
  }
  if (is_private) {
    obs::MetricsRegistry& registry = obs::GlobalMetrics();
    static obs::Gauge* epsilon_gauge = registry.GetGauge("dp.epsilon");
    static obs::Gauge* delta_gauge = registry.GetGauge("dp.delta");
    static obs::Gauge* eps_step_gauge =
        registry.GetGauge("dp.epsilon_first_step");
    epsilon_gauge->Set(result.achieved_epsilon);
    delta_gauge->Set(effective_delta);
    if (!result.epsilon_trajectory.empty()) {
      eps_step_gauge->Set(result.epsilon_trajectory.front());
    }
  }

  // ---- Module 3: DP-GNN training ----------------------------------------
  obs::Counter* iter_counter =
      obs::GlobalMetrics().GetCounter("train.iterations");
  obs::Counter* clip_counter =
      obs::GlobalMetrics().GetCounter("train.grads_clipped");

  std::unique_ptr<GnnModel> model;
  if (resumed) {
    // Weights come from the snapshot; the RNG resumes at the exact stream
    // position the crashed run reached, and the deterministic training
    // counters are restored so a resumed run's metrics export matches an
    // uninterrupted one.
    model = std::move(snapshot.model);
    PRIVIM_RETURN_NOT_OK(rng.RestoreState(snapshot.rng));
    iter_counter->Reset();
    iter_counter->Increment(snapshot.train_iterations_counter);
    clip_counter->Reset();
    clip_counter->Increment(snapshot.grads_clipped_counter);
    // Snapshots are only written after a completed iteration, so the loss
    // gauge always has a meaningful value to restore. Without this a resume
    // of an already-finished run (zero remaining iterations) would export
    // loss 0 where the uninterrupted run exported its final mean loss.
    obs::GlobalMetrics().GetGauge("train.loss")->Set(snapshot.mean_loss_last);
  } else {
    Result<std::unique_ptr<GnnModel>> created =
        CreateGnnModel(options.gnn, &rng);
    if (!created.ok()) return created.status();
    model = std::move(created).value();
  }

  DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = is_private ? result.noise_multiplier : 0.0;
  training.occurrence_bound = result.occurrence_bound;
  training.optimizer = options.optimizer;
  training.loss = options.loss;

  ckpt::AccountingState accounting_state;
  ckpt::SamplerState sampler_state;
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (checkpointing) {
    ckpt::CheckpointConfig ckpt_config;
    ckpt_config.directory = options.checkpoint_dir;
    ckpt_config.every = options.checkpoint_every;
    ckpt_config.keep = options.checkpoint_keep;
    manager = std::make_unique<ckpt::CheckpointManager>(ckpt_config);
    PRIVIM_RETURN_NOT_OK(manager->Initialize());
    accounting_state.is_private = is_private;
    accounting_state.noise_multiplier = result.noise_multiplier;
    accounting_state.achieved_epsilon = result.achieved_epsilon;
    accounting_state.delta = effective_delta;
    accounting_state.occurrence_bound = result.occurrence_bound;
    accounting_state.epsilon_trajectory = result.epsilon_trajectory;
    sampler_state.frequency = std::move(extraction_frequency);
    sampler_state.empirical_max_occurrence = result.empirical_max_occurrence;
    training.checkpoint_fn =
        [&, fingerprint](const TrainCheckpointView& view) -> Status {
      if (!manager->ShouldCheckpoint(view.next_iteration,
                                     view.total_iterations)) {
        return Status::OK();
      }
      ckpt::SnapshotRefs refs;
      refs.config_fingerprint = fingerprint;
      refs.next_iteration = view.next_iteration;
      refs.total_iterations = view.total_iterations;
      refs.mean_loss_first = view.mean_loss_first;
      refs.mean_loss_last = view.mean_loss_last;
      refs.rng = view.rng->SaveState();
      refs.model = view.model;
      refs.optimizer = view.optimizer;
      refs.accounting = &accounting_state;
      refs.sampler = &sampler_state;
      refs.container = &container;
      refs.train_iterations_counter = iter_counter->Value();
      refs.grads_clipped_counter = clip_counter->Value();
      return manager->Write(refs);
    };
  }

  TrainResume train_resume;
  if (resumed) {
    train_resume.start_iteration = snapshot.next_iteration;
    train_resume.mean_loss_first = snapshot.mean_loss_first;
    train_resume.mean_loss_last = snapshot.mean_loss_last;
    train_resume.optimizer = std::move(snapshot.optimizer);
    training.resume = &train_resume;
  }

  Result<TrainStats> stats =
      TrainDpGnn(model.get(), container, training, &rng);
  if (!stats.ok()) return stats.status();
  result.train_stats = stats.value();

  // Nothing below reads the extraction state. Free it before the selection
  // forward, the run's memory peak, so that forward reuses its heap.
  container = SubgraphContainer();
  extraction_frequency = std::vector<int64_t>();
  sampler_state = ckpt::SamplerState();

  // ---- Seed selection on the evaluation graph ---------------------------
  obs::TraceSpan selection_span("pipeline/seed_selection");
  Result<Tensor> scores = infer::ScoreGraph(*model, eval_graph);
  if (!scores.ok()) return scores.status();
  result.eval_scores = std::move(scores).value();
  result.seeds = TopKSeeds(result.eval_scores, options.seed_set_size);
  result.model = std::move(model);
  return result;
}

}  // namespace privim
