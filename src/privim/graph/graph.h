// Compressed-sparse-row graph, the substrate every PrivIM component runs on.
//
// The paper works on directed, edge-weighted graphs (Def. 1, Eq. 2): the
// weight w_uv on edge (u, v) is the probability that u influences v under
// the Independent Cascade model. Undirected inputs are symmetrized into two
// directed arcs. Diffusion walks out-edges while GNN message passing
// aggregates in-edges (Eq. 2 stores A_uv = w_vu for v in N_in(u)), so a
// directed graph materializes both adjacencies. An undirected graph is
// symmetric — its in-CSR is byte-equal to its out-CSR — so it holds the
// out-CSR alone, and its in-accessors read that.

#ifndef PRIVIM_GRAPH_GRAPH_H_
#define PRIVIM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "privim/common/rng.h"
#include "privim/common/status.h"

namespace privim {

using NodeId = int32_t;

namespace graph_internal {
struct CsrParts;  // graph/partitioned.h
}  // namespace graph_internal

/// One directed, weighted arc.
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;
};

/// Immutable CSR graph. Construct through GraphBuilder.
class Graph {
 public:
  Graph() = default;

  int64_t num_nodes() const { return num_nodes_; }
  /// Number of directed arcs (an undirected edge counts as two arcs).
  int64_t num_arcs() const { return static_cast<int64_t>(out_neighbors_.size()); }
  /// True if the graph was declared undirected at build time: every arc has
  /// its reverse, so ForEachUndirectedNeighbor reads out-lists alone.
  bool undirected() const { return undirected_; }

  int64_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  int64_t InDegree(NodeId v) const {
    const std::vector<int64_t>& offsets = in_offsets();
    return offsets[v + 1] - offsets[v];
  }

  /// Successors of v (targets of out-arcs).
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_neighbors_.data() + out_offsets_[v],
            static_cast<size_t>(OutDegree(v))};
  }
  /// Weight of the arc (v, OutNeighbors(v)[i]).
  std::span<const float> OutWeights(NodeId v) const {
    return {out_weights_.data() + out_offsets_[v],
            static_cast<size_t>(OutDegree(v))};
  }
  /// Predecessors of v (sources of in-arcs).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_neighbors().data() + in_offsets()[v],
            static_cast<size_t>(InDegree(v))};
  }
  /// Weight of the arc (InNeighbors(v)[i], v) — i.e. w_uv for u -> v.
  std::span<const float> InWeights(NodeId v) const {
    return {in_weights().data() + in_offsets()[v],
            static_cast<size_t>(InDegree(v))};
  }

  /// The whole in-CSR: InNeighbors(v) is InCsrSources()[InCsrOffsets()[v]
  /// .. InCsrOffsets()[v + 1]). Attention kernels walk it in place.
  std::span<const int64_t> InCsrOffsets() const { return in_offsets(); }
  std::span<const NodeId> InCsrSources() const { return in_neighbors(); }

  /// Bytes of the CSR arrays the graph holds: one direction when
  /// undirected, both otherwise.
  int64_t CsrBytes() const;

  /// Mean out-degree (equals mean in-degree).
  double AverageDegree() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_arcs()) / static_cast<double>(num_nodes_);
  }

  /// True if an arc u -> v exists (binary search; neighbors are sorted).
  bool HasArc(NodeId u, NodeId v) const;

  /// Visits every arc in CSR order without materializing an edge list.
  /// `fn` is called as fn(src, dst, weight).
  template <typename Fn>
  void ForEachArc(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (int64_t i = out_offsets_[u]; i < out_offsets_[u + 1]; ++i) {
        fn(u, out_neighbors_[static_cast<size_t>(i)],
           out_weights_[static_cast<size_t>(i)]);
      }
    }
  }

  /// All arcs as an edge list (in CSR order). Prefer ForEachArc when the
  /// caller only iterates; this materializes a new vector per call.
  std::vector<Edge> ToEdgeList() const;

  /// Adopts a finished CSR: the assembly's output (GraphBuilder), or code
  /// that writes both directions itself (InducedSubgraph). Nothing is
  /// sorted, deduplicated or validated, so `parts` must be what
  /// GraphBuilder::Build() would produce from its arcs: offsets of
  /// num_nodes + 1 entries, each out-row sorted by target with no duplicate
  /// and no self-loop, and the in-CSR holding the same arcs and weights,
  /// each in-row sorted by source. Pass `undirected` only when every arc
  /// has its reverse with the same weight (see undirected()): the out-CSR
  /// is then the in-CSR, so the in-arrays are not adopted (they may be
  /// empty) and the graph holds one direction.
  static Graph FromCsr(int64_t num_nodes, graph_internal::CsrParts parts,
                       bool undirected = false);

 private:
  // An undirected graph's in-CSR is its out-CSR; its in_* members stay
  // empty.
  const std::vector<int64_t>& in_offsets() const {
    return undirected_ ? out_offsets_ : in_offsets_;
  }
  const std::vector<NodeId>& in_neighbors() const {
    return undirected_ ? out_neighbors_ : in_neighbors_;
  }
  const std::vector<float>& in_weights() const {
    return undirected_ ? out_weights_ : in_weights_;
  }

  int64_t num_nodes_ = 0;
  bool undirected_ = false;
  std::vector<int64_t> out_offsets_{0};
  std::vector<NodeId> out_neighbors_;
  std::vector<float> out_weights_;
  std::vector<int64_t> in_offsets_{0};
  std::vector<NodeId> in_neighbors_;
  std::vector<float> in_weights_;
};

/// Accumulates edges and materializes an immutable CSR Graph.
class GraphBuilder {
 public:
  /// `undirected` inserts the reverse arc for every AddEdge call.
  explicit GraphBuilder(int64_t num_nodes, bool undirected = false);

  /// Reserves room for `num_edges` future AddEdge calls (doubled when the
  /// builder is undirected, since each call inserts the reverse arc too).
  void Reserve(int64_t num_edges);

  /// Adds arc src -> dst (plus dst -> src when undirected). Self-loops and
  /// out-of-range endpoints are rejected.
  Status AddEdge(NodeId src, NodeId dst, float weight = 1.0f);

  /// Bulk AddEdge; reserves capacity for the whole batch up front.
  Status AddEdges(const std::vector<Edge>& edges);

  int64_t num_edges_added() const { return static_cast<int64_t>(edges_.size()); }

  /// Sorts, deduplicates (keeping the first weight for duplicate arcs) and
  /// builds the CSR representation. The builder may not be reused after.
  /// The assembly runs on the global ThreadPool over the shard layout
  /// (graph/partitioned.h); the result is byte-identical at every thread
  /// count.
  Result<Graph> Build();

  /// Parallel build from per-task edge lists, for producers that already
  /// generate edges in parallel (the BA/SBM generators): semantically
  /// equivalent to AddEdge-ing every edge of every task in order into a
  /// builder with the same `undirected` flag and calling Build(), but
  /// without ever funneling the edges through one vector. Validation uses
  /// AddEdge's error codes. Deterministic in (num_nodes, task contents,
  /// task order) — never in thread count.
  static Result<Graph> BuildParallel(int64_t num_nodes, bool undirected,
                                     std::vector<std::vector<Edge>> task_edges);

 private:
  int64_t num_nodes_;
  bool undirected_;
  bool built_ = false;
  std::vector<Edge> edges_;
};

/// Replaces every arc weight with `weight` (IC uniform probability setting;
/// the paper's evaluation uses weight = 1).
Graph WithUniformWeights(const Graph& graph, float weight);

/// Weighted-cascade weights: w_uv = 1 / in_degree(v) (classic IC variant).
Graph WithWeightedCascadeWeights(const Graph& graph);

/// Relabels nodes by a uniformly random permutation (same structure, new
/// ids). Synthetic generators grow graphs in degree-correlated id order;
/// permuting removes that artifact so node ids carry no information, like
/// the ids of real datasets.
Graph WithPermutedNodeIds(const Graph& graph, Rng* rng);

}  // namespace privim

#endif  // PRIVIM_GRAPH_GRAPH_H_
