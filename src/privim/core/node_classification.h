// Node classification under the PrivIM framework (Sec. VI: "For classical
// GNN tasks like node classification, our training phase remains
// effective. By designing the sampling process to extract specific
// subgraphs, it can also be adapted to these tasks.")
//
// The pipeline is unchanged — dual-stage frequency sampling bounds each
// node's occurrences at M, the Theorem-3 accountant calibrates the noise,
// DP-SGD trains — only the objective becomes a per-node binary
// cross-entropy against labels, and decoding thresholds the sigmoid output.
// Labels are node attributes, so they are covered by the same node-level
// adjacency definition as the features.

#ifndef PRIVIM_CORE_NODE_CLASSIFICATION_H_
#define PRIVIM_CORE_NODE_CLASSIFICATION_H_

#include <vector>

#include "privim/core/pipeline.h"

namespace privim {

/// Synthetic binary community labels for a graph without ground truth:
/// pick `num_anchors` anchor nodes per class, BFS from all anchors
/// simultaneously over the undirected structure, and label each node by the
/// class of the nearest anchor (ties and unreachable nodes resolved by a
/// fair coin). Produces structure-correlated, learnable labels.
std::vector<uint8_t> GenerateCommunityLabels(const Graph& graph,
                                             int64_t num_anchors, Rng* rng);

/// Mean binary cross-entropy of the model's (ctx.num_nodes x 1) sigmoid
/// output `scores` against `labels` restricted to the subgraph's nodes
/// (via its global ids).
Result<Variable> BinaryCrossEntropyLoss(const Variable& scores,
                                        const GraphContext& ctx,
                                        const Subgraph& subgraph,
                                        const std::vector<uint8_t>& labels);

struct NodeClassificationResult {
  std::vector<uint8_t> predictions;  ///< thresholded at 0.5, eval graph
  double accuracy = 0.0;             ///< fraction correct on eval labels
  double majority_baseline = 0.0;    ///< accuracy of always-majority
  Tensor eval_scores;
  double noise_multiplier = 0.0;
  double achieved_epsilon = std::numeric_limits<double>::infinity();
  int64_t container_size = 0;
  TrainStats train_stats;
};

/// End-to-end differentially private node classification. `train_labels`
/// must have one entry per train_graph node, `eval_labels` per eval_graph
/// node. Reuses PrivImOptions; `seed_set_size` and `loss` are ignored.
Result<NodeClassificationResult> RunPrivNodeClassification(
    const Graph& train_graph, const std::vector<uint8_t>& train_labels,
    const Graph& eval_graph, const std::vector<uint8_t>& eval_labels,
    const PrivImOptions& options, uint64_t seed);

}  // namespace privim

#endif  // PRIVIM_CORE_NODE_CLASSIFICATION_H_
