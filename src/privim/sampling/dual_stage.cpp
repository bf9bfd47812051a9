#include "privim/sampling/dual_stage.h"

#include <algorithm>

#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

// Stage yields for the dual-stage sampler. `boundary_nodes` measures how much
// of the graph stage 1 left unsaturated — the input BES works with.
void RecordDualStageMetrics(const DualStageResult& result,
                            int64_t boundary_nodes) {
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  static obs::Counter* stage1 =
      registry.GetCounter("sampling.dual.stage1_subgraphs");
  static obs::Counter* stage2 =
      registry.GetCounter("sampling.dual.stage2_subgraphs");
  static obs::Counter* boundary =
      registry.GetCounter("sampling.dual.boundary_nodes");
  stage1->Increment(static_cast<uint64_t>(result.stage1_subgraphs));
  stage2->Increment(static_cast<uint64_t>(result.stage2_subgraphs));
  boundary->Increment(static_cast<uint64_t>(boundary_nodes));
}

}  // namespace

Status DualStageOptions::Validate() const {
  PRIVIM_RETURN_NOT_OK(stage1.Validate());
  if (boundary_divisor < 1) {
    return Status::InvalidArgument("boundary_divisor must be >= 1");
  }
  return Status::OK();
}

Result<DualStageResult> DualStageSampling(const Graph& graph,
                                          const DualStageOptions& options,
                                          Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  obs::TraceSpan span("sampling/dual_stage");

  DualStageResult result;
  result.frequency.assign(graph.num_nodes(), 0);

  // Stage 1: Sensitivity-Constrained Sampling on the full graph.
  Result<std::vector<Subgraph>> stage1 =
      FreqSampling(graph, options.stage1, &result.frequency, rng);
  if (!stage1.ok()) return stage1.status();
  result.stage1_subgraphs = static_cast<int64_t>(stage1.value().size());
  result.container.Append(std::move(stage1).value());

  if (!options.enable_boundary_stage) {
    RecordDualStageMetrics(result, /*boundary_nodes=*/0);
    return result;
  }

  // Stage 2: Boundary-Enhanced Sampling on the nodes stage 1 left
  // unsaturated. Saturated nodes have e_v = 0 (Eq. 9), so the walks run on
  // the parent graph and never enter them; the frequencies carry each node's
  // stage-1 count, so the global cap of M occurrences holds across both
  // stages.
  std::vector<NodeId> remaining;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (result.frequency[v] < options.stage1.frequency_threshold) {
      remaining.push_back(v);
    }
  }
  if (remaining.size() < 2) {
    RecordDualStageMetrics(result, static_cast<int64_t>(remaining.size()));
    return result;
  }

  FreqSamplingOptions stage2 = options.stage1;
  stage2.subgraph_size = std::max<int64_t>(
      2, options.stage1.subgraph_size / options.boundary_divisor);
  Result<std::vector<Subgraph>> stage2_subgraphs = BoundaryFreqSampling(
      graph, remaining, stage2, &result.frequency, rng);
  if (!stage2_subgraphs.ok()) return stage2_subgraphs.status();
  result.stage2_subgraphs =
      static_cast<int64_t>(stage2_subgraphs.value().size());
  result.container.Append(std::move(stage2_subgraphs).value());
  RecordDualStageMetrics(result, static_cast<int64_t>(remaining.size()));
  return result;
}

}  // namespace privim
