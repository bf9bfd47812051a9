// Breadth-first traversal utilities: the r-hop ball (the N_r(v0) constraint
// in Alg. 1) and the undirected neighbour visitor.

#ifndef PRIVIM_GRAPH_TRAVERSAL_H_
#define PRIVIM_GRAPH_TRAVERSAL_H_

#include <span>
#include <vector>

#include "privim/graph/graph.h"
#include "privim/graph/partitioned.h"

namespace privim {

/// Nodes within `r` hops of `source` in the underlying undirected
/// structure (both arc directions; the source itself at distance 0), in
/// BFS order. Random-walk subgraph extraction uses this so walks do not
/// strand at sink nodes of directed graphs. Distances live in `visits` —
/// the function bumps its epoch, so a call costs O(ball + shards entered),
/// not an O(num_nodes) clear. After the call, membership tests are
/// `visits->Get(v) != -1` until the next epoch bump; this is how the RWR
/// sampler keeps a walk inside N_r(v0) without an O(n) set. The map must
/// cover the graph (layout().num_nodes >= graph.num_nodes()).
std::vector<NodeId> UndirectedRHopBall(const Graph& graph, NodeId source,
                                       int r, ShardedVisitMap* visits);

/// Calls fn(u) for each neighbour u of v in the underlying undirected
/// structure: the out-neighbours in CSR order, then each in-neighbour that
/// is not also an out-neighbour (reciprocal arcs contribute once). Both
/// lists are sorted, so one forward cursor over the out-list finds those
/// in-neighbours without allocating. On a graph built undirected every
/// in-neighbour is an out-neighbour (GraphBuilder inserts the reverse of
/// every arc), so only the out-list is read.
template <typename Fn>
void ForEachUndirectedNeighbor(const Graph& graph, NodeId v, Fn&& fn) {
  const std::span<const NodeId> out = graph.OutNeighbors(v);
  for (NodeId u : out) fn(u);
  if (graph.undirected()) return;
  size_t cursor = 0;
  for (NodeId u : graph.InNeighbors(v)) {
    while (cursor < out.size() && out[cursor] < u) ++cursor;
    if (cursor < out.size() && out[cursor] == u) continue;
    fn(u);
  }
}

}  // namespace privim

#endif  // PRIVIM_GRAPH_TRAVERSAL_H_
