#include "privim/core/loss.h"

#include "privim/nn/ops.h"

namespace privim {

Result<Variable> InfluenceLoss(const Variable& scores, const GraphContext& ctx,
                               const InfluenceLossOptions& options) {
  if (options.diffusion_steps < 1) {
    return Status::InvalidArgument("diffusion_steps must be >= 1");
  }
  if (options.lambda < 0.0f) {
    return Status::InvalidArgument("lambda must be >= 0");
  }
  if (scores.rows() != ctx.num_nodes || scores.cols() != 1) {
    return Status::InvalidArgument("score column shape mismatch");
  }
  if (ctx.num_nodes == 0) {
    return Status::InvalidArgument("empty graph");
  }

  // scores[u] = p_u, the model's probability of selecting u as a seed.
  // Unroll the j-step diffusion upper bound of Theorem 2 / Eq. 4, with
  // H^{(0)} = p and p_hat_i = phi(A . H^{(i-1)}).
  const auto phi = [&options](const Variable& x) {
    return options.phi == PhiKind::kOneMinusExpNeg ? OneMinusExpNeg(x)
                                                   : Clamp(x, 0.0f, 1.0f);
  };
  Variable not_influenced(Tensor::Ones(ctx.num_nodes, 1));
  Variable step_probs = scores;
  for (int64_t step = 0; step < options.diffusion_steps; ++step) {
    const Variable p_hat = phi(SpMM(ctx.influence_adj, step_probs));
    not_influenced =
        Multiply(not_influenced, Affine(p_hat, -1.0f, 1.0f));
    step_probs = p_hat;
  }

  const float inv_n = 1.0f / static_cast<float>(ctx.num_nodes);
  const Variable miss_term = Affine(Sum(not_influenced), inv_n, 0.0f);
  const Variable size_term =
      Affine(Sum(scores), options.lambda * inv_n, 0.0f);
  return Add(miss_term, size_term);
}

Result<Variable> InfluenceLoss(const GnnModel& model, const GraphContext& ctx,
                               const Tensor& features,
                               const InfluenceLossOptions& options) {
  Result<Variable> scores = model.Run(ctx, features);
  if (!scores.ok()) return scores.status();
  return InfluenceLoss(scores.value(), ctx, options);
}

}  // namespace privim
