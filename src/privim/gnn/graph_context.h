// Precomputed message-passing operators for one (sub)graph.
//
// Training revisits the same subgraphs every iteration, so the CSR operators
// each GNN flavor needs (Eq. 2 influence aggregation, GCN-normalized
// adjacency, mean/sum in-aggregation, raw arc lists for the max-cut
// objective) are built once per graph and shared across forward passes.
//
// Attention (GAT/GRAT) needs no operator: it attends over the graph's arcs
// plus one self-loop per node, and the compiled program reads those in
// place from the graph's in-CSR, which the context borrows. The edge order
// is fixed: edge k < num_arcs is the in-CSR's k-th entry, the arc
// InCsrSources()[k] -> v with InCsrOffsets()[v] <= k < InCsrOffsets()[v + 1]
// (destinations ascending, each one's sources ascending), and edge
// num_arcs + v is v's self-loop. Without self-attention, a node with no
// in-arcs would collapse to a constant (bias-only) embedding, which on
// directed graphs destroys the per-node seed ranking.

#ifndef PRIVIM_GNN_GRAPH_CONTEXT_H_
#define PRIVIM_GNN_GRAPH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "privim/graph/graph.h"
#include "privim/nn/ops.h"

namespace privim {

struct GraphContext {
  /// The operators Build() can assemble, as bits of `parts`. A compiled
  /// program reads only some (InferProgram::context_parts()); training adds
  /// influence_adj, which the Eq. 5 loss reads whatever the architecture,
  /// and builds them all for a custom objective, which may read any.
  enum Part : uint32_t {
    kInfluenceAdj = 1u << 0,
    kGcnAdj = 1u << 1,
    kMeanInAdj = 1u << 2,
    kSumInAdj = 1u << 3,
    kArcLists = 1u << 4,  ///< arc_src / arc_dst
    kAllParts = (1u << 5) - 1,
  };

  int64_t num_nodes = 0;

  /// The graph Build() read, borrowed: attention reads its in-CSR, so the
  /// graph must outlive the context.
  const Graph* graph = nullptr;

  /// The Part bits Build() assembled; the other members stay empty.
  uint32_t parts = 0;

  /// A with A[v][u] = w_uv for u in N_in(v): SpMM(influence_adj, p) gives
  /// each node's incoming influence mass (Eq. 2 / Theorem 2).
  std::shared_ptr<const SparseMatrix> influence_adj;

  /// Symmetric-normalized adjacency with self-loops,
  /// value(u->v) = 1 / sqrt((din(v)+1) (din(u)+1)) (GCN, Eq. 31-32).
  std::shared_ptr<const SparseMatrix> gcn_adj;

  /// Mean in-neighbor aggregation, value(u->v) = 1 / din(v) (GraphSAGE).
  std::shared_ptr<const SparseMatrix> mean_in_adj;

  /// Sum in-neighbor aggregation, value(u->v) = 1 (GIN).
  std::shared_ptr<const SparseMatrix> sum_in_adj;

  /// All arcs u->v as parallel arrays.
  std::vector<int32_t> arc_src;
  std::vector<int32_t> arc_dst;

  static GraphContext Build(const Graph& graph, uint32_t parts = kAllParts);
  /// A context borrows its graph, so a temporary cannot be its graph.
  static GraphContext Build(Graph&& graph, uint32_t parts = kAllParts) = delete;
};

/// The attention edge set as parallel source and destination lists, in the
/// order above. Only the tape's GAT/GRAT, the test oracle of the compiled
/// program, materializes them, once per forward.
struct AttentionLists {
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
};
AttentionLists BuildAttentionLists(const Graph& graph);

}  // namespace privim

#endif  // PRIVIM_GNN_GRAPH_CONTEXT_H_
