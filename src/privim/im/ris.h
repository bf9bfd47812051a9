// Reverse Influence Sampling (RIS) seed selection, the sampling-based IM
// family the paper's related work credits with "a balance between
// effectiveness and efficiency" (Sec. VI-A; Tang et al., SIGMOD'15).
//
// Theory: a random Reverse-Reachable (RR) set is the set of nodes that
// would have influenced a uniformly random target under one IC realization
// (simulated along reversed arcs). The influence spread of any seed set S
// satisfies I(S) = n * Pr[S intersects a random RR set], so maximizing
// coverage of a pool of RR sets maximizes spread. Seed selection is lazy
// greedy max-coverage over the pool.
//
// The reverse-IC walk below is the one RR-set walk in the library: the
// sketch index (im/sketch) builds its pools with it too, and RIS ranks its
// pool with that index's TopK sweep.
//
// This solver is non-private; it serves as an additional reference point
// next to CELF and as the classical alternative PrivIM is measured against.

#ifndef PRIVIM_IM_RIS_H_
#define PRIVIM_IM_RIS_H_

#include <cstdint>
#include <vector>

#include "privim/common/rng.h"
#include "privim/common/status.h"
#include "privim/graph/graph.h"

namespace privim {

struct RisOptions {
  /// Number of RR sets to sample. More sets tighten the estimate; the
  /// classic IMM bound needs O(n log n / eps^2) but a few thousand suffice
  /// for seed *ranking* on the graph sizes here. At most INT32_MAX: set
  /// ids are 32-bit in the index that ranks the pool.
  int64_t num_rr_sets = 4000;
  /// IC steps per reverse simulation; -1 runs to quiescence (matches the
  /// forward IC semantics used for evaluation).
  int64_t max_steps = -1;

  Status Validate() const;
};

struct RisResult {
  std::vector<NodeId> seeds;
  /// Estimated spread n * (covered RR sets) / (total RR sets).
  double estimated_spread = 0.0;
  int64_t rr_sets_generated = 0;
};

/// Scratch for AppendReverseReachable, reused across walks on one graph.
struct ReverseReachScratch {
  explicit ReverseReachScratch(int64_t num_nodes)
      : reached(static_cast<size_t>(num_nodes), 0) {}

  std::vector<uint8_t> reached;  ///< one byte per node, all zero between walks
  std::vector<NodeId> frontier;
  std::vector<NodeId> next_frontier;
};

/// Appends one reverse-reachable set to `out`: `target`, then every node
/// with a live path to it of at most `max_steps` arcs (-1 = unbounded), in
/// breadth-first order. `rng` null means every arc fires (the deterministic
/// w = 1 enumeration); otherwise arc u -> v joins with probability w_uv,
/// drawing one Bernoulli per arc with w_uv < 1 that reaches an unreached u.
void AppendReverseReachable(const Graph& graph, NodeId target,
                            int64_t max_steps, Rng* rng,
                            ReverseReachScratch* scratch,
                            std::vector<NodeId>* out);

/// Full RIS pipeline: sample options.num_rr_sets RR sets, each from a
/// uniform target drawn from `rng`, then pick min(k, n) seeds by lazy greedy
/// max-coverage over them (SketchIndex::TopK on the pool).
Result<RisResult> RisSeedSelection(const Graph& graph, int64_t k,
                                   const RisOptions& options, Rng* rng);

}  // namespace privim

#endif  // PRIVIM_IM_RIS_H_
