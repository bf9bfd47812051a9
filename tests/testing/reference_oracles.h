// Oracles kept for tests only: an Erdos-Renyi G(n, m) generator for
// homogeneous control graphs, weakly connected components, and the
// non-lazy greedy that CELF must match. No library code calls them.

#ifndef PRIVIM_TESTS_TESTING_REFERENCE_ORACLES_H_
#define PRIVIM_TESTS_TESTING_REFERENCE_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "privim/common/rng.h"
#include "privim/graph/graph.h"
#include "privim/graph/traversal.h"
#include "privim/im/celf.h"
#include "privim/im/spread_oracle.h"

namespace privim {
namespace testing {

namespace reference_internal {

// Packs an arc into a set key for dedup during sampling.
inline uint64_t ArcKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

}  // namespace reference_internal

/// G(n, m): exactly `num_edges` distinct edges chosen uniformly.
inline Result<Graph> ErdosRenyi(int64_t num_nodes, int64_t num_edges,
                                bool directed, Rng* rng) {
  if (num_nodes < 2) return Status::InvalidArgument("need >= 2 nodes");
  const int64_t max_edges = directed ? num_nodes * (num_nodes - 1)
                                     : num_nodes * (num_nodes - 1) / 2;
  if (num_edges > max_edges) {
    return Status::InvalidArgument("more edges than the graph can hold");
  }
  GraphBuilder builder(num_nodes, /*undirected=*/!directed);
  builder.Reserve(num_edges);
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(num_edges) * 2);
  int64_t added = 0;
  while (added < num_edges) {
    NodeId u = static_cast<NodeId>(rng->NextBounded(num_nodes));
    NodeId v = static_cast<NodeId>(rng->NextBounded(num_nodes));
    if (u == v) continue;
    if (!directed && u > v) std::swap(u, v);
    if (!seen.insert(reference_internal::ArcKey(u, v)).second) continue;
    PRIVIM_RETURN_NOT_OK(builder.AddEdge(u, v));
    ++added;
  }
  return builder.Build();
}

/// Weakly connected component label per node (labels are 0-based and dense).
struct ComponentInfo {
  std::vector<NodeId> label;  ///< component id per node
  int64_t num_components = 0;
};
inline ComponentInfo WeaklyConnectedComponents(const Graph& graph) {
  ComponentInfo info;
  info.label.assign(graph.num_nodes(), -1);
  std::deque<NodeId> queue;
  for (NodeId seed = 0; seed < graph.num_nodes(); ++seed) {
    if (info.label[seed] != -1) continue;
    const NodeId component = static_cast<NodeId>(info.num_components++);
    info.label[seed] = component;
    queue.push_back(seed);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      ForEachUndirectedNeighbor(graph, u, [&](NodeId v) {
        if (info.label[v] != -1) return;
        info.label[v] = component;
        queue.push_back(v);
      });
    }
  }
  return info;
}

/// Non-lazy greedy; O(n k) oracle calls. The reference CELF must match.
inline Result<SeedSelectionResult> PlainGreedy(const SpreadOracle& oracle,
                                               int64_t k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int64_t n = oracle.num_nodes();
  k = std::min(k, n);

  SeedSelectionResult result;
  std::vector<uint8_t> chosen(n, 0);
  std::vector<NodeId> trial;
  double current_spread = 0.0;
  for (int64_t round = 0; round < k; ++round) {
    double best_gain = -1.0;
    NodeId best_node = -1;
    for (NodeId v = 0; v < n; ++v) {
      if (chosen[v]) continue;
      trial = result.seeds;
      trial.push_back(v);
      const double gain = oracle.Spread(trial) - current_spread;
      ++result.evaluations;
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
      }
    }
    if (best_node < 0) break;
    chosen[best_node] = 1;
    result.seeds.push_back(best_node);
    current_spread += best_gain;
  }
  result.spread = current_spread;
  return result;
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_REFERENCE_ORACLES_H_
