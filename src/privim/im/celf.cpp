#include "privim/im/celf.h"

#include <algorithm>
#include <queue>

namespace privim {
namespace {

struct LazyGain {
  double gain;
  NodeId node;
  int64_t round;  // seed-set size when `gain` was computed
  bool operator<(const LazyGain& other) const { return gain < other.gain; }
};

}  // namespace

Result<SeedSelectionResult> CelfGreedy(const SpreadOracle& oracle, int64_t k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int64_t n = oracle.num_nodes();
  k = std::min(k, n);

  SeedSelectionResult result;
  std::priority_queue<LazyGain> heap;
  std::vector<NodeId> trial;
  trial.reserve(k);

  // Initial pass: marginal gain of each singleton.
  for (NodeId v = 0; v < n; ++v) {
    trial.assign(1, v);
    const double gain = oracle.Spread(trial);
    ++result.evaluations;
    heap.push({gain, v, 0});
  }

  double current_spread = 0.0;
  while (static_cast<int64_t>(result.seeds.size()) < k && !heap.empty()) {
    LazyGain top = heap.top();
    heap.pop();
    const int64_t round = static_cast<int64_t>(result.seeds.size());
    if (top.round == round) {
      // Gain is fresh for this round: submodularity guarantees it is still
      // the maximum, so commit without re-evaluation.
      result.seeds.push_back(top.node);
      current_spread += top.gain;
    } else {
      trial = result.seeds;
      trial.push_back(top.node);
      const double fresh_gain = oracle.Spread(trial) - current_spread;
      ++result.evaluations;
      top.gain = fresh_gain;
      top.round = round;
      heap.push(top);
    }
  }
  result.spread = current_spread;
  return result;
}

std::vector<NodeId> TopDegreeSeeds(const Graph& graph, int64_t k) {
  const int64_t n = graph.num_nodes();
  k = std::min(k, n);
  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  std::partial_sort(nodes.begin(), nodes.begin() + k, nodes.end(),
                    [&graph](NodeId a, NodeId b) {
                      return graph.OutDegree(a) > graph.OutDegree(b);
                    });
  nodes.resize(k);
  return nodes;
}

std::vector<NodeId> DegreeDiscountSeeds(const Graph& graph, int64_t k,
                                        double edge_probability) {
  const int64_t n = graph.num_nodes();
  k = std::min(k, n);
  std::vector<double> discounted(n);
  std::vector<int64_t> chosen_neighbors(n, 0);
  std::vector<uint8_t> chosen(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    discounted[v] = static_cast<double>(graph.OutDegree(v));
  }

  std::vector<NodeId> seeds;
  seeds.reserve(k);
  for (int64_t round = 0; round < k; ++round) {
    NodeId best = -1;
    double best_score = -1.0;
    for (NodeId v = 0; v < n; ++v) {
      if (!chosen[v] && discounted[v] > best_score) {
        best_score = discounted[v];
        best = v;
      }
    }
    if (best < 0) break;
    chosen[best] = 1;
    seeds.push_back(best);
    for (NodeId u : graph.OutNeighbors(best)) {
      if (chosen[u]) continue;
      ++chosen_neighbors[u];
      const double dv = static_cast<double>(graph.OutDegree(u));
      const double tv = static_cast<double>(chosen_neighbors[u]);
      discounted[u] =
          dv - 2.0 * tv - (dv - tv) * tv * edge_probability;
    }
  }
  return seeds;
}

}  // namespace privim
