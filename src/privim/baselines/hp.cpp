#include "privim/baselines/hp.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "privim/common/timer.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/dp/sensitivity.h"
#include "privim/im/seed_selection.h"
#include "privim/nn/infer/engine.h"
#include "privim/sampling/subgraph_container.h"

namespace privim {
namespace {

// HeterPoisson ego extraction: BFS from the center, keeping each in-neighbor
// independently with probability min(1, theta / din), to depth r.
Result<SubgraphContainer> SampleEgoTrees(const Graph& graph,
                                         const HpOptions& options,
                                         double sampling_rate, int64_t depth,
                                         Rng* rng) {
  SubgraphContainer container;
  std::vector<NodeId> nodes;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next_frontier;
  for (NodeId center = 0; center < graph.num_nodes(); ++center) {
    if (!rng->NextBernoulli(sampling_rate)) continue;
    nodes.assign(1, center);
    std::unordered_set<NodeId> visited{center};
    frontier.assign(1, center);
    for (int64_t hop = 0; hop < depth && !frontier.empty(); ++hop) {
      next_frontier.clear();
      for (NodeId u : frontier) {
        const auto sources = graph.InNeighbors(u);
        if (sources.empty()) continue;
        const double keep = std::min(
            1.0, static_cast<double>(options.theta) /
                     static_cast<double>(sources.size()));
        for (NodeId w : sources) {
          if (!rng->NextBernoulli(keep)) continue;
          if (!visited.insert(w).second) continue;
          nodes.push_back(w);
          next_frontier.push_back(w);
        }
      }
      frontier.swap(next_frontier);
    }
    if (nodes.size() < 2) continue;
    Result<Subgraph> sub = InducedSubgraph(graph, nodes);
    if (!sub.ok()) return sub.status();
    container.Add(std::move(sub).value());
  }
  return container;
}

}  // namespace

Result<PrivImResult> RunHp(const Graph& train_graph, const Graph& eval_graph,
                           const HpOptions& options, bool use_grat,
                           uint64_t seed) {
  Rng rng(seed);
  PrivImResult result;

  const double q =
      options.sampling_rate > 0.0
          ? std::min(1.0, options.sampling_rate)
          : std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(
                                      1, train_graph.num_nodes())));

  WallTimer sampling_timer;
  Result<SubgraphContainer> sampled = SampleEgoTrees(
      train_graph, options, q, options.gnn.num_layers, &rng);
  if (!sampled.ok()) return sampled.status();
  SubgraphContainer container = std::move(sampled).value();
  result.sampling_seconds = sampling_timer.ElapsedSeconds();
  if (container.empty()) {
    return Status::FailedPrecondition("HP sampling produced no subgraphs");
  }
  result.container_size = container.size();
  result.empirical_max_occurrence =
      container.MaxOccurrence(train_graph.num_nodes());
  // Ego trees bound occurrences exactly as Lemma 1 does for Alg. 1: a node
  // enters another center's tree only through <= theta^i per-hop slots.
  result.occurrence_bound = std::min<int64_t>(
      NaiveOccurrenceBound(options.theta, options.gnn.num_layers),
      result.container_size);

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
    // Calibration uses the Gaussian accountant; the SML mechanism then uses
    // the calibrated scale (SML's heavier tails make this a conservative
    // "same level of DP guarantee" match — see DESIGN.md substitutions).
    Result<double> sigma = CalibrateNoiseMultiplier(
        accounting, options.iterations, delta, options.epsilon);
    if (!sigma.ok()) return sigma.status();
    result.noise_multiplier = sigma.value();
    accounting.noise_multiplier = result.noise_multiplier;
    result.achieved_epsilon =
        ComputeEpsilon(accounting, options.iterations, delta).epsilon;
  }

  GnnConfig gnn = options.gnn;
  gnn.kind = use_grat ? GnnKind::kGrat : GnnKind::kGcn;
  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(gnn, &rng);
  if (!model.ok()) return model.status();

  DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = is_private ? result.noise_multiplier : 0.0;
  training.occurrence_bound = result.occurrence_bound;
  training.noise_kind = NoiseKind::kSml;
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
