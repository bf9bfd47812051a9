#include "privim/baselines/egn.h"

#include <algorithm>
#include <cmath>

#include "privim/common/timer.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/im/seed_selection.h"
#include "privim/nn/infer/engine.h"
#include "privim/sampling/random_walk.h"

namespace privim {

Result<SubgraphContainer> SampleUnconstrainedWalks(const Graph& graph,
                                                   const EgnOptions& options,
                                                   double sampling_rate,
                                                   Rng* rng) {
  SubgraphContainer container;
  const WalkShape shape{options.subgraph_size, options.restart_probability,
                        options.walk_length};
  WalkScratch scratch;
  WalkCounts counts;  // EGN reports no sampler counters
  for (NodeId v0 = 0; v0 < graph.num_nodes(); ++v0) {
    if (!rng->NextBernoulli(sampling_rate)) continue;
    if (graph.OutDegree(v0) + graph.InDegree(v0) == 0) continue;
    if (!WalkWithRestart(graph, v0, shape, [](NodeId) { return true; }, rng,
                         &scratch, &counts)) {
      continue;
    }
    Result<Subgraph> sub = InducedSubgraph(graph, scratch.nodes);
    if (!sub.ok()) return sub.status();
    container.Add(std::move(sub).value());
  }
  return container;
}

Result<PrivImResult> RunEgn(const Graph& train_graph, const Graph& eval_graph,
                            const EgnOptions& options, uint64_t seed) {
  Rng rng(seed);
  PrivImResult result;

  const double q =
      options.sampling_rate > 0.0
          ? std::min(1.0, options.sampling_rate)
          : std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(
                                      1, train_graph.num_nodes())));

  WallTimer sampling_timer;
  Result<SubgraphContainer> sampled =
      SampleUnconstrainedWalks(train_graph, options, q, &rng);
  if (!sampled.ok()) return sampled.status();
  SubgraphContainer container = std::move(sampled).value();
  result.sampling_seconds = sampling_timer.ElapsedSeconds();
  if (container.empty()) {
    return Status::FailedPrecondition("EGN sampling produced no subgraphs");
  }
  result.container_size = container.size();
  result.empirical_max_occurrence =
      container.MaxOccurrence(train_graph.num_nodes());
  // No structural constraint: a node may appear in every subgraph, so the
  // only valid a-priori occurrence bound is m itself.
  result.occurrence_bound = result.container_size;

  const bool is_private =
      options.epsilon > 0.0 && std::isfinite(options.epsilon);
  if (is_private) {
    const double delta =
        options.delta > 0.0
            ? options.delta
            : 1.0 / static_cast<double>(train_graph.num_nodes());
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
  }

  // EGN's original framework uses a GCN backbone (Sec. V-A).
  GnnConfig gnn = options.gnn;
  gnn.kind = GnnKind::kGcn;
  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(gnn, &rng);
  if (!model.ok()) return model.status();

  DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = is_private ? result.noise_multiplier : 0.0;
  training.occurrence_bound = result.occurrence_bound;
  training.loss = options.loss;
  Result<TrainStats> stats =
      TrainDpGnn(model.value().get(), container, training, &rng);
  if (!stats.ok()) return stats.status();
  result.train_stats = stats.value();

  Result<Tensor> scores = infer::ScoreGraph(*model.value(), eval_graph);
  if (!scores.ok()) return scores.status();
  result.eval_scores = std::move(scores).value();
  result.seeds = TopKSeeds(result.eval_scores, options.seed_set_size);
  result.model = std::move(model).value();
  return result;
}

}  // namespace privim
