// Seed-selection algorithms: CELF lazy greedy (the evaluation's ground
// truth, with the classic (1 - 1/e) guarantee from submodularity), plain
// greedy (test reference), and degree heuristics (cheap baselines).

#ifndef PRIVIM_IM_CELF_H_
#define PRIVIM_IM_CELF_H_

#include <vector>

#include "privim/common/status.h"
#include "privim/im/spread_oracle.h"

namespace privim {

struct SeedSelectionResult {
  std::vector<NodeId> seeds;
  double spread = 0.0;
  /// Oracle evaluations performed (CELF's laziness is measured by this).
  int64_t evaluations = 0;
};

/// CELF (Leskovec et al. 2007): lazy-forward greedy using stale upper
/// bounds from submodularity. Selects min(k, n) seeds.
Result<SeedSelectionResult> CelfGreedy(const SpreadOracle& oracle, int64_t k);

/// Top-k nodes by out-degree.
std::vector<NodeId> TopDegreeSeeds(const Graph& graph, int64_t k);

/// DegreeDiscount (Chen et al. 2009) heuristic for uniform-weight IC.
std::vector<NodeId> DegreeDiscountSeeds(const Graph& graph, int64_t k,
                                        double edge_probability = 1.0);

}  // namespace privim

#endif  // PRIVIM_IM_CELF_H_
