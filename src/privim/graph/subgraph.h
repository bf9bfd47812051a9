// Node-induced subgraphs with local<->global id mapping.
//
// Subgraph extraction (Alg. 1 / Alg. 3) collects a node set V_sub and then
// materializes the subgraph of G induced by V_sub. The GNN trains on the
// local graph; seed selection and privacy accounting need the global ids.

#ifndef PRIVIM_GRAPH_SUBGRAPH_H_
#define PRIVIM_GRAPH_SUBGRAPH_H_

#include <vector>

#include "privim/graph/graph.h"

namespace privim {

/// An induced subgraph plus the mapping back to the parent graph.
struct Subgraph {
  /// Local CSR graph over nodes [0, global_ids.size()).
  Graph local;
  /// global_ids[local_id] = node id in the parent graph.
  std::vector<NodeId> global_ids;

  int64_t num_nodes() const { return local.num_nodes(); }
};

/// Builds the subgraph of `graph` induced by `nodes` (duplicates ignored,
/// order of first occurrence preserved). Arcs are kept when both endpoints
/// are in the node set, weights carried over. The local graph is directed,
/// with the CSR bytes GraphBuilder would build from those arcs. Costs
/// O(|nodes| + the members' out-arcs): no sort, no GraphBuilder.
Result<Subgraph> InducedSubgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes);

}  // namespace privim

#endif  // PRIVIM_GRAPH_SUBGRAPH_H_
