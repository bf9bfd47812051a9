#include "privim/core/node_classification.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "privim/dp/rdp_accountant.h"
#include "privim/graph/traversal.h"
#include "privim/nn/infer/engine.h"
#include "privim/nn/ops.h"
#include "privim/sampling/dual_stage.h"

namespace privim {

std::vector<uint8_t> GenerateCommunityLabels(const Graph& graph,
                                             int64_t num_anchors, Rng* rng) {
  const int64_t n = graph.num_nodes();
  std::vector<uint8_t> labels(n, 0);
  if (n == 0) return labels;
  num_anchors = std::max<int64_t>(1, num_anchors);

  // Distinct anchors, alternating classes, then multi-source BFS.
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  rng->Shuffle(&order);
  const int64_t total_anchors = std::min<int64_t>(2 * num_anchors, n);

  std::vector<int> distance(n, -1);
  std::deque<NodeId> queue;
  for (int64_t i = 0; i < total_anchors; ++i) {
    const NodeId anchor = order[i];
    labels[anchor] = static_cast<uint8_t>(i % 2);
    distance[anchor] = 0;
    queue.push_back(anchor);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    ForEachUndirectedNeighbor(graph, u, [&](NodeId v) {
      if (distance[v] != -1) return;
      distance[v] = distance[u] + 1;
      labels[v] = labels[u];
      queue.push_back(v);
    });
  }
  for (NodeId v = 0; v < n; ++v) {
    if (distance[v] == -1) labels[v] = rng->NextBernoulli(0.5);
  }
  return labels;
}

Result<Variable> BinaryCrossEntropyLoss(const Variable& scores,
                                        const GraphContext& ctx,
                                        const Subgraph& subgraph,
                                        const std::vector<uint8_t>& labels) {
  if (scores.rows() != ctx.num_nodes || scores.cols() != 1) {
    return Status::InvalidArgument("score column shape mismatch");
  }
  if (ctx.num_nodes == 0) return Status::InvalidArgument("empty graph");
  Tensor y(ctx.num_nodes, 1);
  for (int64_t local = 0; local < ctx.num_nodes; ++local) {
    const NodeId global = subgraph.global_ids[local];
    if (global < 0 || global >= static_cast<int64_t>(labels.size())) {
      return Status::OutOfRange("label index out of range");
    }
    y.at(local, 0) = static_cast<float>(labels[global]);
  }

  const Variable y_var{y};
  const Variable bce = Add(
      Multiply(y_var, Log(scores)),
      Multiply(Affine(y_var, -1.0f, 1.0f), Log(Affine(scores, -1.0f, 1.0f))));
  return Affine(Mean(bce), -1.0f, 0.0f);
}

Result<NodeClassificationResult> RunPrivNodeClassification(
    const Graph& train_graph, const std::vector<uint8_t>& train_labels,
    const Graph& eval_graph, const std::vector<uint8_t>& eval_labels,
    const PrivImOptions& options, uint64_t seed) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (static_cast<int64_t>(train_labels.size()) != train_graph.num_nodes() ||
      static_cast<int64_t>(eval_labels.size()) != eval_graph.num_nodes()) {
    return Status::InvalidArgument("label vector size mismatch");
  }
  if (train_graph.num_nodes() < options.subgraph_size) {
    return Status::InvalidArgument("train graph smaller than one subgraph");
  }

  Rng rng(seed);
  NodeClassificationResult result;

  const double q =
      options.sampling_rate > 0.0
          ? std::min(1.0, options.sampling_rate)
          : std::min(1.0, 256.0 / static_cast<double>(std::max<int64_t>(
                                      1, train_graph.num_nodes())));
  DualStageOptions dual;
  dual.stage1.subgraph_size = options.subgraph_size;
  dual.stage1.restart_probability = options.restart_probability;
  dual.stage1.decay = options.decay;
  dual.stage1.sampling_rate = q;
  dual.stage1.walk_length = options.walk_length;
  dual.stage1.frequency_threshold = options.frequency_threshold;
  dual.boundary_divisor = options.boundary_divisor;
  Result<DualStageResult> sampled = DualStageSampling(train_graph, dual, &rng);
  if (!sampled.ok()) return sampled.status();
  SubgraphContainer container = std::move(sampled.value().container);
  if (container.empty()) {
    return Status::FailedPrecondition("sampling produced no subgraphs");
  }
  result.container_size = container.size();
  const int64_t occurrence_bound =
      std::min(options.frequency_threshold, result.container_size);

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
  training.loss_fn = [&train_labels](const Variable& scores,
                                     const GraphContext& ctx,
                                     const Subgraph& sub) {
    return BinaryCrossEntropyLoss(scores, ctx, sub, train_labels);
  };
  Result<TrainStats> stats =
      TrainDpGnn(model.value().get(), container, training, &rng);
  if (!stats.ok()) return stats.status();
  result.train_stats = stats.value();

  Result<Tensor> scores = infer::ScoreGraph(*model.value(), eval_graph);
  if (!scores.ok()) return scores.status();
  result.eval_scores = std::move(scores).value();
  result.predictions.resize(eval_graph.num_nodes());
  int64_t correct = 0;
  int64_t positives = 0;
  for (NodeId v = 0; v < eval_graph.num_nodes(); ++v) {
    result.predictions[v] = result.eval_scores.at(v, 0) > 0.5f;
    correct += result.predictions[v] == eval_labels[v];
    positives += eval_labels[v];
  }
  const double n = static_cast<double>(eval_graph.num_nodes());
  result.accuracy = static_cast<double>(correct) / n;
  result.majority_baseline =
      std::max(static_cast<double>(positives), n - static_cast<double>(positives)) / n;
  return result;
}

}  // namespace privim
