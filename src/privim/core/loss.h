// The probabilistic penalty loss for influence maximization (Eq. 5).
//
//   L(G; W) = sum_u prod_{i=1..j} (1 - p_hat_i(u | S_{i-1}))
//             + lambda * sum_u phi(h_u)
//
// where phi(h_u) is the model's per-node seed probability p_u and p_hat_i
// estimates the i-th step influence probability by one influence-weighted
// message-passing step p_hat_i = phi(A_u . H^{(i-1)}), with phi a [0, 1]
// squash (see PhiKind below for the bound directions of the two
// candidates). The first term drives total influence up, the second keeps
// the implied seed set small — the Erdos-goes-neural trade-off with
// lambda as the knob.

#ifndef PRIVIM_CORE_LOSS_H_
#define PRIVIM_CORE_LOSS_H_

#include "privim/common/status.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/models.h"
#include "privim/nn/autograd.h"

namespace privim {

/// The [0, 1] squash phi applied to aggregated influence mass in Eq. 3/5.
/// The paper only requires "an activation function that maps the result to
/// range [0, 1]". The true one-step influence probability is sandwiched
/// (verified numerically in tests/core/theorem2_test.cpp):
///
///   1 - exp(-sum w h)  <=  1 - prod(1 - w h)  <=  min(1, sum w h)
///
/// kClamp is the paper's Theorem-2 upper bound (Boole's inequality).
/// kOneMinusExpNeg, the default, is the smooth LOWER bound: with it the
/// Eq. 5 miss term prod(1 - phi(...)) upper-bounds the true miss
/// probability, so minimizing the loss maximizes a guaranteed lower bound
/// on influence spread — and its gradient never saturates. Both are
/// ablated in bench_ablation and perform comparably.
enum class PhiKind {
  kOneMinusExpNeg,  ///< phi(x) = 1 - exp(-x): smooth lower bound (default)
  kClamp,           ///< phi(x) = min(x, 1): Theorem-2 upper bound
};

struct InfluenceLossOptions {
  int64_t diffusion_steps = 1;  ///< j; the paper's evaluation uses j = 1
  /// Seed-size penalty weight. The trade-off must bind for the ranking to
  /// be selective: too small and every node's probability saturates at 1
  /// (ties destroy the top-k ranking), too large and everything collapses
  /// to 0. 0.5 balances well across the Table-I graph densities.
  float lambda = 0.5f;
  PhiKind phi = PhiKind::kOneMinusExpNeg;
};

/// Builds the Eq. 5 loss graph over the model's (ctx.num_nodes x 1) seed
/// probabilities `scores`. The returned scalar is ready for Backward().
/// Loss is normalized by the node count so the clipping bound C is
/// comparable across subgraph sizes. DP-SGD passes a leaf holding the
/// compiled forward's scores and hands the leaf's gradient to the
/// program's reverse pass (core/trainer.cpp).
Result<Variable> InfluenceLoss(const Variable& scores, const GraphContext& ctx,
                               const InfluenceLossOptions& options);

/// The same loss on top of `model`'s tape forward; `features` must be
/// (ctx.num_nodes x model.config().input_dim).
Result<Variable> InfluenceLoss(const GnnModel& model, const GraphContext& ctx,
                               const Tensor& features,
                               const InfluenceLossOptions& options);

}  // namespace privim

#endif  // PRIVIM_CORE_LOSS_H_
