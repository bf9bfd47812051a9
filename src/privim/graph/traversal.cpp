#include "privim/graph/traversal.h"

#include <deque>

namespace privim {

std::vector<NodeId> RHopBall(const Graph& graph, NodeId source, int r) {
  std::vector<NodeId> ball;
  if (source < 0 || source >= graph.num_nodes() || r < 0) return ball;
  std::vector<int> distance(graph.num_nodes(), -1);
  std::deque<NodeId> queue;
  distance[source] = 0;
  queue.push_back(source);
  ball.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (distance[u] >= r) continue;
    for (NodeId v : graph.OutNeighbors(u)) {
      if (distance[v] != -1) continue;
      distance[v] = distance[u] + 1;
      queue.push_back(v);
      ball.push_back(v);
    }
  }
  return ball;
}

std::vector<NodeId> UndirectedRHopBall(const Graph& graph, NodeId source,
                                       int r) {
  std::vector<NodeId> ball;
  if (source < 0 || source >= graph.num_nodes() || r < 0) return ball;
  std::vector<int> distance(graph.num_nodes(), -1);
  std::deque<NodeId> queue;
  distance[source] = 0;
  queue.push_back(source);
  ball.push_back(source);
  auto visit = [&](NodeId from, NodeId to) {
    if (distance[to] != -1) return;
    distance[to] = distance[from] + 1;
    queue.push_back(to);
    ball.push_back(to);
  };
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (distance[u] >= r) continue;
    ForEachUndirectedNeighbor(graph, u, [&](NodeId v) { visit(u, v); });
  }
  return ball;
}

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

std::vector<int> BfsDistances(const Graph& graph, NodeId source) {
  std::vector<int> distance(graph.num_nodes(), -1);
  if (source < 0 || source >= graph.num_nodes()) return distance;
  std::deque<NodeId> queue;
  distance[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.OutNeighbors(u)) {
      if (distance[v] != -1) continue;
      distance[v] = distance[u] + 1;
      queue.push_back(v);
    }
  }
  return distance;
}

ComponentInfo WeaklyConnectedComponents(const Graph& graph) {
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

}  // namespace privim
