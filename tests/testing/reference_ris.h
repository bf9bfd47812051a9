// Reference RIS solver: the stand-alone implementation that RisSeedSelection
// replaced, kept as a test oracle (like reference_extraction.h keeps the
// plain samplers).
//
// The library samples the RR-set pool through the sketch index's reverse-IC
// walk with one reused scratch buffer and ranks it with SketchIndex::TopK.
// The reference does it the plain way:
//
//   * ReferenceSampleReverseReachableSet — a fresh n-byte `reached` array
//     per set;
//   * ReferenceRisSeedSelection — one posting vector per node and its own
//     std::priority_queue lazy greedy with integer gains.
//
// It draws the same random numbers in the same order, so the tests can
// demand the same bytes: the seeds, the bits of estimated_spread,
// rr_sets_generated and the state the caller's Rng is left in.

#ifndef PRIVIM_TESTS_TESTING_REFERENCE_RIS_H_
#define PRIVIM_TESTS_TESTING_REFERENCE_RIS_H_

#include <algorithm>
#include <queue>
#include <vector>

#include "privim/common/rng.h"
#include "privim/common/status.h"
#include "privim/graph/graph.h"
#include "privim/im/ris.h"

namespace privim {
namespace testing {

/// One random RR set: reverse-IC from a uniform target (target included).
inline std::vector<NodeId> ReferenceSampleReverseReachableSet(
    const Graph& graph, int64_t max_steps, Rng* rng) {
  std::vector<NodeId> rr_set;
  if (graph.num_nodes() == 0) return rr_set;
  const NodeId target = static_cast<NodeId>(rng->NextBounded(graph.num_nodes()));

  // Reverse IC: node u influences the target chain if the arc u -> v fired,
  // which happens with probability w_uv; walk in-arcs breadth-first.
  std::vector<uint8_t> reached(graph.num_nodes(), 0);
  std::vector<NodeId> frontier{target};
  reached[target] = 1;
  rr_set.push_back(target);
  std::vector<NodeId> next_frontier;
  for (int64_t step = 0;
       !frontier.empty() && (max_steps < 0 || step < max_steps); ++step) {
    next_frontier.clear();
    for (NodeId v : frontier) {
      const auto sources = graph.InNeighbors(v);
      const auto weights = graph.InWeights(v);
      for (size_t i = 0; i < sources.size(); ++i) {
        const NodeId u = sources[i];
        if (reached[u]) continue;
        if (weights[i] >= 1.0f || rng->NextBernoulli(weights[i])) {
          reached[u] = 1;
          next_frontier.push_back(u);
          rr_set.push_back(u);
        }
      }
    }
    frontier.swap(next_frontier);
  }
  return rr_set;
}

/// Sample options.num_rr_sets RR sets, then pick min(k, n) seeds by lazy
/// greedy max-coverage over them.
inline Result<RisResult> ReferenceRisSeedSelection(const Graph& graph,
                                                   int64_t k,
                                                   const RisOptions& options,
                                                   Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int64_t n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  k = std::min(k, n);

  // Inverted index: which RR sets each node appears in.
  std::vector<std::vector<int32_t>> node_to_sets(n);
  int64_t total_sets = 0;
  for (int64_t s = 0; s < options.num_rr_sets; ++s) {
    const std::vector<NodeId> rr_set =
        ReferenceSampleReverseReachableSet(graph, options.max_steps, rng);
    for (NodeId v : rr_set) {
      node_to_sets[v].push_back(static_cast<int32_t>(s));
    }
    ++total_sets;
  }

  // Lazy greedy max-coverage over RR sets.
  struct LazyGain {
    int64_t gain;
    NodeId node;
    int64_t round;
    bool operator<(const LazyGain& other) const { return gain < other.gain; }
  };
  std::priority_queue<LazyGain> heap;
  for (NodeId v = 0; v < n; ++v) {
    heap.push({static_cast<int64_t>(node_to_sets[v].size()), v, 0});
  }

  RisResult result;
  result.rr_sets_generated = total_sets;
  std::vector<uint8_t> covered(total_sets, 0);
  int64_t covered_count = 0;
  auto fresh_gain = [&](NodeId v) {
    int64_t gain = 0;
    for (int32_t s : node_to_sets[v]) gain += !covered[s];
    return gain;
  };

  while (static_cast<int64_t>(result.seeds.size()) < k && !heap.empty()) {
    LazyGain top = heap.top();
    heap.pop();
    const int64_t round = static_cast<int64_t>(result.seeds.size());
    if (top.round != round) {
      top.gain = fresh_gain(top.node);
      top.round = round;
      heap.push(top);
      continue;
    }
    result.seeds.push_back(top.node);
    for (int32_t s : node_to_sets[top.node]) {
      if (!covered[s]) {
        covered[s] = 1;
        ++covered_count;
      }
    }
  }
  result.estimated_spread = static_cast<double>(n) *
                            static_cast<double>(covered_count) /
                            static_cast<double>(total_sets);
  return result;
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_REFERENCE_RIS_H_
