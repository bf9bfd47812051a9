#include "privim/core/combinatorial.h"

#include <algorithm>
#include <cmath>

#include "privim/common/timer.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/dp/sensitivity.h"
#include "privim/graph/projection.h"
#include "privim/nn/infer/engine.h"
#include "privim/nn/ops.h"
#include "privim/sampling/dual_stage.h"
#include "privim/sampling/rwr_sampler.h"

namespace privim {

Result<Variable> MaxCutLoss(const Variable& scores, const GraphContext& ctx) {
  if (scores.rows() != ctx.num_nodes || scores.cols() != 1) {
    return Status::InvalidArgument("score column shape mismatch");
  }
  if (ctx.num_nodes == 0) return Status::InvalidArgument("empty graph");

  if (ctx.arc_src.empty()) {
    // No arcs: the cut is identically zero; return a zero loss that still
    // touches the scores so gradients are well-defined (and zero).
    return Affine(Sum(scores), 0.0f, 0.0f);
  }
  const Variable pu = GatherRows(scores, ctx.arc_src);
  const Variable pv = GatherRows(scores, ctx.arc_dst);
  const Variable crossing =
      Add(Multiply(pu, Affine(pv, -1.0f, 1.0f)),
          Multiply(pv, Affine(pu, -1.0f, 1.0f)));
  const float scale = -1.0f / static_cast<float>(ctx.arc_src.size());
  return Affine(Sum(crossing), scale, 0.0f);
}

int64_t CutValue(const Graph& graph, const std::vector<uint8_t>& assignment) {
  int64_t cut = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.OutNeighbors(u)) {
      cut += assignment[u] != assignment[v];
    }
  }
  return cut;
}

namespace {

std::vector<uint8_t> LocalSearchOnce(const Graph& graph, Rng* rng,
                                     int64_t max_passes) {
  const int64_t n = graph.num_nodes();
  std::vector<uint8_t> assignment(n);
  for (NodeId v = 0; v < n; ++v) assignment[v] = rng->NextBernoulli(0.5);

  // Flip any node whose cut contribution improves; repeat until a full
  // pass makes no change. Counts both arc directions (same/cross totals
  // over out- and in-arcs).
  for (int64_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (NodeId v = 0; v < n; ++v) {
      int64_t same = 0, cross = 0;
      for (NodeId u : graph.OutNeighbors(v)) {
        (assignment[u] == assignment[v] ? same : cross) += 1;
      }
      for (NodeId u : graph.InNeighbors(v)) {
        (assignment[u] == assignment[v] ? same : cross) += 1;
      }
      if (same > cross) {
        assignment[v] ^= 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return assignment;
}

}  // namespace

std::vector<uint8_t> LocalSearchMaxCut(const Graph& graph, Rng* rng,
                                       int64_t max_passes, int64_t restarts) {
  std::vector<uint8_t> best;
  int64_t best_cut = -1;
  for (int64_t r = 0; r < std::max<int64_t>(1, restarts); ++r) {
    std::vector<uint8_t> candidate = LocalSearchOnce(graph, rng, max_passes);
    const int64_t cut = CutValue(graph, candidate);
    if (cut > best_cut) {
      best_cut = cut;
      best = std::move(candidate);
    }
  }
  return best;
}

std::vector<uint8_t> DerandomizedRounding(const Graph& graph,
                                          const Tensor& scores) {
  const int64_t n = graph.num_nodes();
  std::vector<uint8_t> assignment(n, 0);
  std::vector<uint8_t> assigned(n, 0);

  // Most confident probabilities first, ties by id for determinism.
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&scores](NodeId a, NodeId b) {
    const float ca = std::fabs(scores.at(a, 0) - 0.5f);
    const float cb = std::fabs(scores.at(b, 0) - 0.5f);
    return ca != cb ? ca > cb : a < b;
  });

  for (NodeId v : order) {
    // Expected crossing mass of v's incident arcs for each side choice:
    // an assigned neighbor contributes 1 when on the other side, an
    // unassigned one contributes its probability of landing there.
    double side1 = 0.0, side0 = 0.0;
    auto accumulate = [&](NodeId u) {
      if (assigned[u]) {
        (assignment[u] == 0 ? side1 : side0) += 1.0;
      } else {
        const double pu = scores.at(u, 0);
        side1 += 1.0 - pu;
        side0 += pu;
      }
    };
    for (NodeId u : graph.OutNeighbors(v)) accumulate(u);
    for (NodeId u : graph.InNeighbors(v)) accumulate(u);
    assignment[v] = side1 >= side0 ? 1 : 0;
    assigned[v] = 1;
  }
  return assignment;
}

Result<MaxCutResult> RunPrivMaxCut(const Graph& train_graph,
                                   const Graph& eval_graph,
                                   const PrivImOptions& options,
                                   uint64_t seed) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (train_graph.num_nodes() < options.subgraph_size) {
    return Status::InvalidArgument("train graph smaller than one subgraph");
  }

  Rng rng(seed);
  MaxCutResult result;

  const double q =
      options.sampling_rate > 0.0
          ? std::min(1.0, options.sampling_rate)
          : std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(
                                      1, train_graph.num_nodes())));

  SubgraphContainer container;
  int64_t occurrence_bound = 0;
  if (options.variant == PrivImVariant::kNaive) {
    Result<Graph> projected = ProjectInDegree(train_graph, options.theta, &rng);
    if (!projected.ok()) return projected.status();
    RwrSamplerOptions rwr;
    rwr.subgraph_size = options.subgraph_size;
    rwr.restart_probability = options.restart_probability;
    rwr.sampling_rate = q;
    rwr.walk_length = options.walk_length;
    rwr.hop_limit = options.gnn.num_layers;
    Result<SubgraphContainer> extracted =
        ExtractSubgraphsRwr(projected.value(), rwr, &rng);
    if (!extracted.ok()) return extracted.status();
    container = std::move(extracted).value();
    occurrence_bound =
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
    occurrence_bound = options.frequency_threshold;
  }
  if (container.empty()) {
    return Status::FailedPrecondition("sampling produced no subgraphs");
  }
  result.container_size = container.size();
  occurrence_bound = std::min(occurrence_bound, result.container_size);

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
    accounting.occurrence_bound = occurrence_bound;
    Result<double> sigma = CalibrateNoiseMultiplier(
        accounting, options.iterations, delta, options.epsilon);
    if (!sigma.ok()) return sigma.status();
    result.noise_multiplier = sigma.value();
    accounting.noise_multiplier = result.noise_multiplier;
    result.achieved_epsilon =
        ComputeEpsilon(accounting, options.iterations, delta).epsilon;
  }

  Result<std::unique_ptr<GnnModel>> model = CreateGnnModel(options.gnn, &rng);
  if (!model.ok()) return model.status();

  DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = is_private ? result.noise_multiplier : 0.0;
  training.occurrence_bound = occurrence_bound;
  training.loss_fn = [](const Variable& scores, const GraphContext& ctx,
                        const Subgraph&) { return MaxCutLoss(scores, ctx); };
  Result<TrainStats> stats =
      TrainDpGnn(model.value().get(), container, training, &rng);
  if (!stats.ok()) return stats.status();
  result.train_stats = stats.value();

  Result<Tensor> scores = infer::ScoreGraph(*model.value(), eval_graph);
  if (!scores.ok()) return scores.status();
  result.eval_scores = std::move(scores).value();
  result.assignment = DerandomizedRounding(eval_graph, result.eval_scores);
  result.cut_value = CutValue(eval_graph, result.assignment);
  return result;
}

}  // namespace privim
