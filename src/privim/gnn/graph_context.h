// Precomputed message-passing operators for one (sub)graph.
//
// Training revisits the same subgraphs every iteration, so the CSR operators
// each GNN flavor needs (Eq. 2 influence aggregation, GCN-normalized
// adjacency, mean/sum in-aggregation, raw arc lists for attention) are built
// once per graph and shared across forward passes.

#ifndef PRIVIM_GNN_GRAPH_CONTEXT_H_
#define PRIVIM_GNN_GRAPH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "privim/graph/graph.h"
#include "privim/nn/ops.h"

namespace privim {

struct GraphContext {
  /// The operators Build() can assemble, as bits of `parts`. Training builds
  /// them all (the loss reads influence_adj whatever the architecture); a
  /// compiled inference program builds only the ones it reads
  /// (InferProgram::context_parts()).
  enum Part : uint32_t {
    kInfluenceAdj = 1u << 0,
    kGcnAdj = 1u << 1,
    kMeanInAdj = 1u << 2,
    kSumInAdj = 1u << 3,
    kArcLists = 1u << 4,        ///< arc_src / arc_dst
    kAttentionLists = 1u << 5,  ///< attention_src / attention_dst
    kAllParts = (1u << 6) - 1,
  };

  int64_t num_nodes = 0;

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

  /// Arcs plus one self-loop per node — the edge set attention layers
  /// (GAT/GRAT) attend over. Without self-attention, a node with no
  /// in-arcs would collapse to a constant (bias-only) embedding, which on
  /// directed graphs destroys the per-node seed ranking.
  std::vector<int32_t> attention_src;
  std::vector<int32_t> attention_dst;

  static GraphContext Build(const Graph& graph, uint32_t parts = kAllParts);
};

}  // namespace privim

#endif  // PRIVIM_GNN_GRAPH_CONTEXT_H_
