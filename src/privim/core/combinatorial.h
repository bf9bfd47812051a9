// Combinatorial-optimization extensions of the PrivIM framework (Sec. VI):
// "since the IM problem is mathematically a classical combinatorial
// optimization problem, our framework can be easily extended to other
// problems like maximum coverage and maximum cut."
//
// Max coverage is the paper's own evaluation objective (IM at w = 1,
// j = 1), so it reuses the Eq. 5 loss. Maximum cut gets the standard
// Erdos-goes-neural probabilistic surrogate: with per-node assignment
// probabilities p, the expected cut under independent rounding is
//   E[cut] = sum_{(u,v) in E} ( p_u (1 - p_v) + p_v (1 - p_u) ),
// and the loss is the (normalized) negated expectation. The whole PrivIM
// machinery — dual-stage frequency sampling, Theorem-3 accounting, DP-SGD —
// carries over unchanged; only the objective and the decoding differ.

#ifndef PRIVIM_CORE_COMBINATORIAL_H_
#define PRIVIM_CORE_COMBINATORIAL_H_

#include <vector>

#include "privim/core/pipeline.h"

namespace privim {

/// Negated normalized expected cut of the model's (ctx.num_nodes x 1)
/// assignment probabilities `scores`; training minimizes it, i.e.
/// maximizes the expected cut.
Result<Variable> MaxCutLoss(const Variable& scores, const GraphContext& ctx);

/// Number of arcs (u, v) with assignment[u] != assignment[v]. For
/// symmetrized (undirected) graphs this counts each undirected edge twice.
int64_t CutValue(const Graph& graph, const std::vector<uint8_t>& assignment);

/// Randomized 1-swap local search for max cut with restarts: from each
/// random start, flip nodes while any flip improves the cut; keep the best
/// of `restarts` runs. At a local optimum every node has at least half its
/// incident arcs crossing, so the result cuts >= |arcs| / 2.
std::vector<uint8_t> LocalSearchMaxCut(const Graph& graph, Rng* rng,
                                       int64_t max_passes = 50,
                                       int64_t restarts = 3);

/// Derandomized rounding by the method of conditional expectations (the
/// Erdos-goes-neural decoding): processes nodes most-confident-first and
/// assigns each the side that maximizes the expected cut given already
/// assigned neighbors (unassigned neighbors contribute at their
/// probability). Never decreases the expected cut of `scores`.
std::vector<uint8_t> DerandomizedRounding(const Graph& graph,
                                          const Tensor& scores);

struct MaxCutResult {
  std::vector<uint8_t> assignment;  ///< per-node side on the eval graph
  int64_t cut_value = 0;            ///< directed arc count across the cut
  Tensor eval_scores;               ///< raw probabilities
  // Privacy / training bookkeeping, as in PrivImResult.
  double noise_multiplier = 0.0;
  double achieved_epsilon = std::numeric_limits<double>::infinity();
  int64_t container_size = 0;
  TrainStats train_stats;
};

/// End-to-end differentially private max-cut: dual-stage sampling on
/// `train_graph`, DP-SGD with MaxCutLoss, derandomized-rounding decoding on
/// `eval_graph`. Reuses PrivImOptions; `seed_set_size` and `loss.lambda`
/// are ignored.
Result<MaxCutResult> RunPrivMaxCut(const Graph& train_graph,
                                   const Graph& eval_graph,
                                   const PrivImOptions& options,
                                   uint64_t seed);

}  // namespace privim

#endif  // PRIVIM_CORE_COMBINATORIAL_H_
