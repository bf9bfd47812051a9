// The random walk with restart that every walk sampler runs: Alg. 1's
// ball-restricted walk, Alg. 3's frequency-weighted walk (Eq. 9) and EGN's
// unconstrained walk differ only in which neighbours a step may move to and
// how it draws one.

#ifndef PRIVIM_SAMPLING_RANDOM_WALK_H_
#define PRIVIM_SAMPLING_RANDOM_WALK_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "privim/common/rng.h"
#include "privim/graph/graph.h"
#include "privim/graph/traversal.h"

namespace privim {

/// The walk's size limits and restart probability.
struct WalkShape {
  int64_t subgraph_size = 40;        ///< n: distinct nodes that complete it
  double restart_probability = 0.3;  ///< tau
  int64_t walk_length = 200;         ///< L: steps before it gives up
};

/// Buffers one walk fills. Reuse one per task across walks, so that a walk
/// step allocates nothing once the buffers have grown.
struct WalkScratch {
  std::vector<NodeId> nodes;       ///< distinct nodes, in first-visit order
  std::vector<NodeId> candidates;  ///< the current step's candidates
  std::vector<double> weights;     ///< their weights (weighted rules only)
};

/// What one walk counted; callers fold these into their sampler counters.
struct WalkCounts {
  int64_t restarts = 0;   ///< tau-restarts
  int64_t dead_ends = 0;  ///< steps with no candidate, restarted at start
};

/// Runs one walk from `start` over the undirected structure of `graph`
/// and returns true once scratch->nodes holds shape.subgraph_size distinct
/// nodes (start first), false after shape.walk_length steps. Each step:
///   1. with probability tau (NextBernoulli) the walk returns to `start`;
///   2. the candidates are the neighbours of the current node, in
///      ForEachUndirectedNeighbor order, that `rule` admits;
///   3. no candidate: back to `start`, a dead end, and no draw;
///   4. otherwise one draw picks the next node. A rule returning bool
///      admits u when true and draws uniformly (NextBounded). A rule
///      returning double admits u when its weight is > 0 and draws in
///      proportion to the weights (NextDiscrete); should that draw find no
///      index, the walk returns to `start`.
/// The visited set is scratch->nodes itself, which never exceeds n.
template <typename Rule>
bool WalkWithRestart(const Graph& graph, NodeId start, const WalkShape& shape,
                     Rule&& rule, Rng* rng, WalkScratch* scratch,
                     WalkCounts* counts) {
  constexpr bool kWeighted =
      std::is_same_v<std::invoke_result_t<Rule&, NodeId>, double>;
  std::vector<NodeId>& nodes = scratch->nodes;
  std::vector<NodeId>& candidates = scratch->candidates;
  std::vector<double>& weights = scratch->weights;
  nodes.assign(1, start);
  NodeId current = start;
  for (int64_t step = 0; step < shape.walk_length; ++step) {
    if (rng->NextBernoulli(shape.restart_probability)) {
      current = start;
      ++counts->restarts;
    }
    candidates.clear();
    weights.clear();
    ForEachUndirectedNeighbor(graph, current, [&](NodeId u) {
      if constexpr (kWeighted) {
        const double weight = rule(u);
        if (weight > 0.0) {
          candidates.push_back(u);
          weights.push_back(weight);
        }
      } else {
        if (rule(u)) candidates.push_back(u);
      }
    });
    if (candidates.empty()) {
      current = start;
      ++counts->dead_ends;
      continue;
    }
    size_t pick;
    if constexpr (kWeighted) {
      pick = rng->NextDiscrete(weights);
      if (pick >= candidates.size()) {
        current = start;
        continue;
      }
    } else {
      pick = static_cast<size_t>(rng->NextBounded(candidates.size()));
    }
    current = candidates[pick];
    if (std::find(nodes.begin(), nodes.end(), current) != nodes.end()) {
      continue;
    }
    nodes.push_back(current);
    if (static_cast<int64_t>(nodes.size()) == shape.subgraph_size) return true;
  }
  return false;
}

}  // namespace privim

#endif  // PRIVIM_SAMPLING_RANDOM_WALK_H_
