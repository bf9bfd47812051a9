#include "privim/core/trainer.h"

#include <cmath>
#include <optional>

#include "privim/common/fault_injection.h"
#include "privim/common/logging.h"
#include "privim/common/thread_pool.h"
#include "privim/common/timer.h"
#include "privim/dp/mechanisms.h"
#include "privim/dp/sensitivity.h"
#include "privim/gnn/features.h"
#include "privim/nn/arena.h"
#include "privim/nn/infer/engine.h"
#include "privim/nn/optimizer.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

// Per-iteration training metrics. Pointers are process-lifetime (registry
// entries are never removed), so the per-iteration cost is a few relaxed
// atomic ops.
struct TrainMetrics {
  obs::Counter* iterations;
  obs::Counter* grads_clipped;
  obs::Gauge* loss;
  obs::Gauge* noise_sigma;
  obs::Histogram* grad_norm;
  obs::Histogram* iteration_s;
  // Arena telemetry, summed over all worker scratch pools.
  // buffers/bytes/node_blocks are cumulative allocation counts — flat in
  // the steady state (the allocation-regression test pins them);
  // acquires/recycles keep counting.
  obs::Gauge* arena_buffers;
  obs::Gauge* arena_bytes;
  obs::Gauge* arena_node_blocks;
  obs::Gauge* arena_acquires;
  obs::Gauge* arena_recycles;
};

const TrainMetrics& Metrics() {
  static const TrainMetrics metrics = {
      obs::GlobalMetrics().GetCounter("train.iterations"),
      obs::GlobalMetrics().GetCounter("train.grads_clipped"),
      obs::GlobalMetrics().GetGauge("train.loss"),
      obs::GlobalMetrics().GetGauge("train.noise_sigma"),
      obs::GlobalMetrics().GetHistogram(
          "train.grad_norm_preclip",
          {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0}),
      obs::GlobalMetrics().GetHistogram("train.iteration_s",
                                        obs::DefaultTimeBucketsSeconds()),
      obs::GlobalMetrics().GetGauge("nn.arena.buffers_allocated"),
      obs::GlobalMetrics().GetGauge("nn.arena.bytes_allocated"),
      obs::GlobalMetrics().GetGauge("nn.arena.node_blocks"),
      obs::GlobalMetrics().GetGauge("nn.arena.acquires"),
      obs::GlobalMetrics().GetGauge("nn.arena.recycles"),
  };
  return metrics;
}

}  // namespace

Status DpSgdOptions::Validate() const {
  if (batch_size < 1) return Status::InvalidArgument("batch_size must be >= 1");
  if (iterations < 1) return Status::InvalidArgument("iterations must be >= 1");
  if (learning_rate <= 0.0f) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (clip_bound <= 0.0f) {
    return Status::InvalidArgument("clip_bound must be positive");
  }
  if (noise_multiplier < 0.0) {
    return Status::InvalidArgument("noise_multiplier must be >= 0");
  }
  if (occurrence_bound < 1) {
    return Status::InvalidArgument("occurrence_bound must be >= 1");
  }
  if (resume != nullptr &&
      (resume->start_iteration < 0 || resume->start_iteration > iterations)) {
    return Status::InvalidArgument(
        "resume start_iteration must be in [0, iterations]");
  }
  return Status::OK();
}

Result<TrainStats> TrainDpGnn(GnnModel* model,
                              const SubgraphContainer& container,
                              const DpSgdOptions& options, Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (container.empty()) {
    return Status::FailedPrecondition("empty subgraph container");
  }
  obs::TraceSpan span("train/dp_sgd");

  TrainStats stats;

  // Message-passing operators and features are immutable per subgraph. They
  // are built on first use — an iteration touches at most batch_size of the
  // container's subgraphs, so short runs never pay for the rest — and cached
  // for all later iterations. Builds happen serially before each batch is
  // dispatched, outside any arena scope (the cache outlives every tape).
  std::vector<std::optional<GraphContext>> contexts(
      static_cast<size_t>(container.size()));
  std::vector<Tensor> features(static_cast<size_t>(container.size()));
  auto ensure_context = [&](int64_t index) {
    std::optional<GraphContext>& ctx = contexts[static_cast<size_t>(index)];
    if (!ctx.has_value()) {
      const Subgraph& sub = container.at(index);
      ctx.emplace(GraphContext::Build(sub.local));
      features[static_cast<size_t>(index)] = BuildNodeFeatures(
          sub.local, model->config().input_dim, &sub.global_ids);
    }
  };

  const std::vector<Variable>& params = model->parameters();
  const size_t param_count = static_cast<size_t>(ParameterCount(params));
  const double noise_stddev =
      options.noise_multiplier *
      NodeSensitivity(options.clip_bound, options.occurrence_bound);

  // The optimizer consumes the privatized mean gradient; applying momentum
  // or Adam to it is post-processing and leaves the DP guarantee intact.
  std::unique_ptr<Optimizer> optimizer;
  switch (options.optimizer) {
    case OptimizerKind::kSgd:
      optimizer = std::make_unique<SgdOptimizer>(params,
                                                 options.learning_rate);
      break;
    case OptimizerKind::kMomentum:
      optimizer = std::make_unique<SgdOptimizer>(
          params, options.learning_rate, options.momentum);
      break;
    case OptimizerKind::kAdam:
      optimizer =
          std::make_unique<AdamOptimizer>(params, options.learning_rate);
      break;
  }

  // Resume: the caller restored weights and the RNG stream; the optimizer
  // moments and loss bookkeeping come from the snapshot here.
  int64_t start_iteration = 0;
  if (options.resume != nullptr) {
    PRIVIM_RETURN_NOT_OK(optimizer->RestoreState(options.resume->optimizer));
    start_iteration = options.resume->start_iteration;
    stats.mean_loss_first = options.resume->mean_loss_first;
    stats.mean_loss_last = options.resume->mean_loss_last;
  }

  // The model is differentiated through its compiled program, compiled and
  // probe-verified against its tape Forward() once per call. The program
  // borrows the parameter tensors, which the optimizer updates in place
  // between batches, so it stays valid for the whole run. The engine
  // borrows the model without owning it.
  Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(std::shared_ptr<const GnnModel>(
          std::shared_ptr<const GnnModel>(), model));
  if (!engine.ok()) return engine.status();
  const infer::InferProgram& program = engine.value()->program();

  // Per-subgraph gradients are embarrassingly parallel: workers share the
  // read-only model, each runs its batch members' forward/objective/reverse
  // pass/clip in its own scratch, and the clipped gradients are reduced in
  // fixed batch order below — the summed gradient entering the DP noise
  // step is bit-identical at any thread count.
  ThreadPool& pool = GlobalThreadPool();
  size_t max_workers = 1;
  if (options.parallel && !ThreadPool::InWorkerThread()) {
    max_workers = std::min<size_t>(pool.num_threads(),
                                   static_cast<size_t>(options.batch_size));
  }
  // One scratch per worker chunk (keyed to the chunk, not the OS thread, so
  // chunk->thread placement can vary freely). Program slots, reverse-pass
  // temporaries and the objective's tape all draw from its pools, so from
  // the second pass over a subgraph shape on nothing touches the heap.
  struct Worker {
    infer::Scratch scratch;
    Tensor scores;
  };
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(max_workers);
  for (size_t w = 0; w < max_workers; ++w) {
    workers.push_back(std::make_unique<Worker>());
  }

  const TrainMetrics& metrics = Metrics();
  metrics.noise_sigma->Set(noise_stddev);

  WallTimer train_timer;
  std::vector<float> summed(param_count, 0.0f);
  std::vector<float> mean_grad(param_count, 0.0f);
  std::vector<std::vector<float>> per_grad;
  std::vector<double> per_loss;
  std::vector<double> per_norm;
  for (int64_t t = start_iteration; t < options.iterations; ++t) {
    obs::TraceSpan iter_span("train/iteration");
    WallTimer iter_timer;
    const std::vector<int64_t> batch =
        container.SampleBatch(options.batch_size, rng);
    const size_t batch_count = batch.size();
    WallTimer setup_timer;
    for (const int64_t index : batch) ensure_context(index);
    stats.setup_seconds += setup_timer.ElapsedSeconds();
    // per_grad entries keep their capacity across iterations; the reverse
    // pass below overwrites them in place.
    if (per_grad.size() != batch_count) per_grad.resize(batch_count);
    per_loss.assign(batch_count, 0.0);
    per_norm.assign(batch_count, 0.0);

    auto subgraph_gradient = [&](Worker* worker, size_t pos) -> Status {
      const int64_t index = batch[pos];
      const GraphContext& ctx = *contexts[static_cast<size_t>(index)];
      PRIVIM_RETURN_NOT_OK(program.Execute(
          ctx, features[static_cast<size_t>(index)], &worker->scratch,
          &worker->scores));
      std::vector<float>& grad = per_grad[pos];
      {
        // The objective's tape lives and dies inside the worker's pools.
        nn::ArenaScope scope(&worker->scratch.pools);
        const Variable scores(worker->scores, /*requires_grad=*/true);
        Result<Variable> loss =
            options.loss_fn
                ? options.loss_fn(scores, ctx, container.at(index))
                : InfluenceLoss(scores, ctx, options.loss);
        if (!loss.ok()) return loss.status();
        per_loss[pos] = loss.value().value().at(0, 0);
        loss.value().Backward();
        if (scores.node()->grad_initialized) {
          PRIVIM_RETURN_NOT_OK(program.Backward(ctx, scores.node()->grad,
                                                &worker->scratch, &grad));
        } else {
          // An objective that ignores the scores: the tape would leave
          // every parameter gradient unset, i.e. zero.
          grad.assign(param_count, 0.0f);
        }
      }
      per_norm[pos] = ClipL2(&grad, options.clip_bound);  // Alg. 2 line 6
      return Status::OK();
    };

    if (max_workers <= 1) {
      for (size_t pos = 0; pos < batch_count; ++pos) {
        PRIVIM_RETURN_NOT_OK(subgraph_gradient(workers[0].get(), pos));
      }
    } else {
      std::vector<Status> chunk_status(max_workers, Status::OK());
      pool.ParallelForChunks(
          batch_count, max_workers,
          [&](size_t chunk, size_t begin, size_t end) {
            for (size_t pos = begin; pos < end; ++pos) {
              const Status status =
                  subgraph_gradient(workers[chunk].get(), pos);
              if (!status.ok()) {
                chunk_status[chunk] = status;
                return;
              }
            }
          });
      for (const Status& status : chunk_status) PRIVIM_RETURN_NOT_OK(status);
    }

    // Alg. 2 line 7: reduce in batch order, independent of chunk placement.
    std::fill(summed.begin(), summed.end(), 0.0f);
    double batch_loss = 0.0;
    int64_t clipped = 0;
    for (size_t pos = 0; pos < batch_count; ++pos) {
      const std::vector<float>& grad = per_grad[pos];
      for (size_t i = 0; i < param_count; ++i) summed[i] += grad[i];
      batch_loss += per_loss[pos];
      metrics.grad_norm->Observe(per_norm[pos]);
      if (per_norm[pos] > options.clip_bound) ++clipped;
    }
    metrics.grads_clipped->Increment(static_cast<uint64_t>(clipped));

    if (noise_stddev > 0.0) {
      // Alg. 2 line 8 (Gaussian) or the HP baseline's SML variant.
      if (options.noise_kind == NoiseKind::kGaussian) {
        AddGaussianNoise(&summed, noise_stddev, rng);
      } else {
        AddSmlNoise(&summed, noise_stddev, rng);
      }
    }
    // Alg. 2 line 9: step by the privatized mean gradient (noisy sum / B).
    const float inv_batch = 1.0f / static_cast<float>(options.batch_size);
    for (size_t i = 0; i < summed.size(); ++i) {
      mean_grad[i] = summed[i] * inv_batch;
    }
    optimizer->Step(mean_grad);

    const double mean_loss =
        batch.empty() ? 0.0 : batch_loss / static_cast<double>(batch.size());
    if (t == 0) stats.mean_loss_first = mean_loss;
    stats.mean_loss_last = mean_loss;
    metrics.loss->Set(mean_loss);
    metrics.iterations->Increment();
    metrics.iteration_s->Observe(iter_timer.ElapsedSeconds());
    uint64_t arena_buffers = 0, arena_bytes = 0, arena_nodes = 0;
    uint64_t arena_acquires = 0, arena_recycles = 0;
    for (const auto& worker : workers) {
      const nn::MemoryPools& pools = worker->scratch.pools;
      arena_buffers += pools.tensors.buffers_allocated();
      arena_bytes += pools.tensors.bytes_allocated();
      arena_nodes += pools.nodes.blocks_allocated();
      arena_acquires += pools.tensors.acquires();
      arena_recycles += pools.tensors.recycles();
    }
    metrics.arena_buffers->Set(static_cast<double>(arena_buffers));
    metrics.arena_bytes->Set(static_cast<double>(arena_bytes));
    metrics.arena_node_blocks->Set(static_cast<double>(arena_nodes));
    metrics.arena_acquires->Set(static_cast<double>(arena_acquires));
    metrics.arena_recycles->Set(static_cast<double>(arena_recycles));
    PRIVIM_LOG(Debug) << "iter " << t << " mean loss " << mean_loss;

    if (options.checkpoint_fn) {
      TrainCheckpointView view;
      view.next_iteration = t + 1;
      view.total_iterations = options.iterations;
      view.mean_loss_first = stats.mean_loss_first;
      view.mean_loss_last = stats.mean_loss_last;
      view.model = model;
      view.optimizer = optimizer.get();
      view.rng = rng;
      PRIVIM_RETURN_NOT_OK(options.checkpoint_fn(view));
    }
    // Crash-safety tests kill the run here, after iteration t's checkpoint.
    PRIVIM_RETURN_NOT_OK(fault::MaybeIterationFault(t));
  }
  stats.training_seconds = train_timer.ElapsedSeconds();
  stats.iterations = options.iterations;
  return stats;
}

}  // namespace privim
