#include "privim/graph/traversal.h"

#include <deque>

namespace privim {

std::vector<NodeId> UndirectedRHopBall(const Graph& graph, NodeId source,
                                       int r, ShardedVisitMap* visits) {
  std::vector<NodeId> ball;
  if (source < 0 || source >= graph.num_nodes() || r < 0) return ball;
  visits->NextEpoch();
  std::deque<NodeId> queue;
  visits->Set(source, 0);
  queue.push_back(source);
  ball.push_back(source);
  auto visit = [&](int32_t from_distance, NodeId to) {
    if (visits->Get(to) != -1) return;
    visits->Set(to, from_distance + 1);
    queue.push_back(to);
    ball.push_back(to);
  };
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int32_t du = visits->Get(u);
    if (du >= r) continue;
    ForEachUndirectedNeighbor(graph, u, [&](NodeId v) { visit(du, v); });
  }
  return ball;
}

}  // namespace privim
