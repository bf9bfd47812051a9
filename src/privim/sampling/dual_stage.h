// Algorithm 3: the dual-stage adaptive frequency sampling scheme (Sec. IV).
//
// Stage 1 — Sensitivity-Constrained Sampling (SCS): FreqSampling on the
// full graph caps every node's occurrence count at M, replacing Lemma 1's
// exponential N_g with N_g* = M.
// Stage 2 — Boundary-Enhanced Sampling (BES): FreqSampling runs again with
// subgraph size n/s, on the boundary graph G_re of the nodes stage 1 left
// unsaturated. G_re is never built: a saturated node (f_v = M) has Eq. 9's
// zero weight, so walks on the full graph already exclude it, and G_re
// survives only as the rank order that keys the stage-2 streams. The
// combined container keeps the same occurrence bound M, so BES adds
// structural signal at zero additional privacy cost.

#ifndef PRIVIM_SAMPLING_DUAL_STAGE_H_
#define PRIVIM_SAMPLING_DUAL_STAGE_H_

#include "privim/common/rng.h"
#include "privim/graph/graph.h"
#include "privim/sampling/freq_sampler.h"
#include "privim/sampling/subgraph_container.h"

namespace privim {

struct DualStageOptions {
  FreqSamplingOptions stage1;
  /// s: stage-2 subgraphs have size max(2, n / s).
  int64_t boundary_divisor = 2;
  /// Disables BES (the "PrivIM+SCS" ablation row of Table II).
  bool enable_boundary_stage = true;

  Status Validate() const;
};

struct DualStageResult {
  SubgraphContainer container;
  std::vector<int64_t> frequency;  ///< final f over the parent graph
  int64_t stage1_subgraphs = 0;
  int64_t stage2_subgraphs = 0;
};

/// Runs Alg. 3 on `graph`. All returned subgraphs carry `graph` node ids.
Result<DualStageResult> DualStageSampling(const Graph& graph,
                                          const DualStageOptions& options,
                                          Rng* rng);

}  // namespace privim

#endif  // PRIVIM_SAMPLING_DUAL_STAGE_H_
