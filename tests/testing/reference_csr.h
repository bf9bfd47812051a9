// Reference CSR assembly: the serial GraphBuilder::Build body that the one
// sharded assembly (graph_internal::BuildCsrParallel) replaced, kept as a
// test oracle (like reference_extraction.h keeps the plain samplers).
//
// The library counting-sorts each shard's arcs by source and stable-sorts
// every row by target. The reference does it the plain way: one global
// std::stable_sort of the arc sequence by (src, dst), a keep-first
// std::unique, then both CSR directions filled in one pass — the in-CSR by
// transposing, for undirected graphs too, which the library stores as one
// CSR. The tests demand the same bytes: every CSR row, weights compared
// bitwise, and an undirected graph's in-rows against the transposed ones.

#ifndef PRIVIM_TESTS_TESTING_REFERENCE_CSR_H_
#define PRIVIM_TESTS_TESTING_REFERENCE_CSR_H_

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "privim/graph/graph.h"
#include "privim/graph/partitioned.h"

namespace privim {
namespace testing {

/// The CSR arrays of the graph a GraphBuilder(num_nodes, undirected)
/// builds after AddEdge-ing `edges` in order, assembled serially: both
/// directions, whatever `undirected` says. Endpoints must be valid.
inline graph_internal::CsrParts ReferenceBuildCsr(
    int64_t num_nodes, const std::vector<Edge>& edges,
    bool undirected = false) {
  // AddEdge's insertion order: each reverse arc right after its edge.
  std::vector<Edge> edges_;
  edges_.reserve(edges.size() * (undirected ? 2 : 1));
  for (const Edge& e : edges) {
    edges_.push_back(e);
    if (undirected) edges_.push_back({e.dst, e.src, e.weight});
  }

  // The sort must be stable so the documented dedup contract ("keep the
  // first weight") holds among equal endpoints.
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               edges_.end());

  graph_internal::CsrParts graph;

  graph.out_offsets.assign(num_nodes + 1, 0);
  graph.in_offsets.assign(num_nodes + 1, 0);
  for (const Edge& e : edges_) {
    ++graph.out_offsets[e.src + 1];
    ++graph.in_offsets[e.dst + 1];
  }
  for (int64_t v = 0; v < num_nodes; ++v) {
    graph.out_offsets[v + 1] += graph.out_offsets[v];
    graph.in_offsets[v + 1] += graph.in_offsets[v];
  }

  graph.out_neighbors.resize(edges_.size());
  graph.out_weights.resize(edges_.size());
  graph.in_neighbors.resize(edges_.size());
  graph.in_weights.resize(edges_.size());

  // Edges are sorted by (src, dst), so the out-CSR fills sequentially and
  // stays sorted; track a per-node cursor for the in-CSR.
  std::vector<int64_t> in_cursor(graph.in_offsets.begin(),
                                 graph.in_offsets.end() - 1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    graph.out_neighbors[i] = e.dst;
    graph.out_weights[i] = e.weight;
    const int64_t slot = in_cursor[e.dst]++;
    graph.in_neighbors[slot] = e.src;
    graph.in_weights[slot] = e.weight;
  }
  // In-neighbor lists come out sorted by source automatically because the
  // outer iteration is sorted by src.

  return graph;
}

/// The graph ReferenceBuildCsr's arrays make.
inline Graph ReferenceBuildGraph(int64_t num_nodes,
                                 const std::vector<Edge>& edges,
                                 bool undirected = false) {
  return Graph::FromCsr(num_nodes,
                        ReferenceBuildCsr(num_nodes, edges, undirected),
                        undirected);
}

/// Empty when `graph`'s in-accessors read exactly the in-CSR of
/// `reference` (ReferenceBuildCsr's arrays): per node the same sources and
/// bitwise-equal weights. Otherwise names the first difference.
inline std::string InCsrDifference(const Graph& graph,
                                   const graph_internal::CsrParts& reference) {
  if (static_cast<int64_t>(reference.in_offsets.size()) !=
      graph.num_nodes() + 1) {
    return "node counts differ";
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const int64_t begin = reference.in_offsets[static_cast<size_t>(v)];
    const int64_t end = reference.in_offsets[static_cast<size_t>(v) + 1];
    const auto sources = graph.InNeighbors(v);
    const auto weights = graph.InWeights(v);
    const std::string at = " of node " + std::to_string(v);
    if (static_cast<int64_t>(sources.size()) != end - begin ||
        !std::equal(sources.begin(), sources.end(),
                    reference.in_neighbors.begin() + begin)) {
      return "in-row" + at;
    }
    if (weights.size() > 0 &&
        std::memcmp(weights.data(), reference.in_weights.data() + begin,
                    weights.size() * sizeof(float)) != 0) {
      return "in-weights" + at;
    }
  }
  return "";
}

/// Empty when the two graphs hold the same CSR bytes (node count, direction
/// flag, and per node the out- and in-rows with bitwise-equal weights);
/// otherwise names the first difference.
inline std::string CsrDifference(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes()) return "node counts differ";
  if (a.num_arcs() != b.num_arcs()) return "arc counts differ";
  if (a.undirected() != b.undirected()) return "direction flags differ";
  const auto same_ids = [](std::span<const NodeId> x,
                           std::span<const NodeId> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  const auto same_weights = [](std::span<const float> x,
                               std::span<const float> y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
  };
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const std::string at = " of local node " + std::to_string(v);
    if (!same_ids(a.OutNeighbors(v), b.OutNeighbors(v))) return "out-row" + at;
    if (!same_weights(a.OutWeights(v), b.OutWeights(v))) {
      return "out-weights" + at;
    }
    if (!same_ids(a.InNeighbors(v), b.InNeighbors(v))) return "in-row" + at;
    if (!same_weights(a.InWeights(v), b.InWeights(v))) return "in-weights" + at;
  }
  return "";
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_REFERENCE_CSR_H_
