#include "privim/graph/graph.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "privim/graph/partitioned.h"

namespace privim {

Graph Graph::FromCsr(int64_t num_nodes, graph_internal::CsrParts parts,
                     bool undirected) {
  Graph graph;
  graph.num_nodes_ = num_nodes;
  graph.undirected_ = undirected;
  graph.out_offsets_ = std::move(parts.out_offsets);
  graph.out_neighbors_ = std::move(parts.out_neighbors);
  graph.out_weights_ = std::move(parts.out_weights);
  if (undirected) {
    graph.in_offsets_ = std::vector<int64_t>();
  } else {
    graph.in_offsets_ = std::move(parts.in_offsets);
    graph.in_neighbors_ = std::move(parts.in_neighbors);
    graph.in_weights_ = std::move(parts.in_weights);
  }
  return graph;
}

int64_t Graph::CsrBytes() const {
  const auto bytes = [](const auto& array) {
    return static_cast<int64_t>(array.size() * sizeof(array[0]));
  };
  return bytes(out_offsets_) + bytes(out_neighbors_) + bytes(out_weights_) +
         bytes(in_offsets_) + bytes(in_neighbors_) + bytes(in_weights_);
}

bool Graph::HasArc(NodeId u, NodeId v) const {
  const auto neighbors = OutNeighbors(u);
  return std::binary_search(neighbors.begin(), neighbors.end(), v);
}

std::vector<Edge> Graph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(out_neighbors_.size());
  ForEachArc([&edges](NodeId u, NodeId v, float w) {
    edges.push_back({u, v, w});
  });
  return edges;
}

GraphBuilder::GraphBuilder(int64_t num_nodes, bool undirected)
    : num_nodes_(num_nodes), undirected_(undirected) {}

void GraphBuilder::Reserve(int64_t num_edges) {
  if (num_edges <= 0) return;
  const size_t arcs = static_cast<size_t>(num_edges) * (undirected_ ? 2 : 1);
  edges_.reserve(edges_.size() + arcs);
}

Status GraphBuilder::AddEdge(NodeId src, NodeId dst, float weight) {
  if (built_) return Status::FailedPrecondition("builder already consumed");
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::OutOfRange("edge endpoint out of range: (" +
                              std::to_string(src) + ", " +
                              std::to_string(dst) + ")");
  }
  if (src == dst) {
    return Status::InvalidArgument("self-loop rejected at node " +
                                   std::to_string(src));
  }
  edges_.push_back({src, dst, weight});
  if (undirected_) edges_.push_back({dst, src, weight});
  return Status::OK();
}

Status GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  Reserve(static_cast<int64_t>(edges.size()));
  for (const Edge& e : edges) {
    PRIVIM_RETURN_NOT_OK(AddEdge(e.src, e.dst, e.weight));
  }
  return Status::OK();
}

Result<Graph> GraphBuilder::BuildParallel(
    int64_t num_nodes, bool undirected,
    std::vector<std::vector<Edge>> task_edges) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("num_nodes must be >= 0");
  }
  std::vector<std::span<const Edge>> tasks;
  tasks.reserve(task_edges.size());
  for (const std::vector<Edge>& task : task_edges) tasks.emplace_back(task);
  Result<graph_internal::CsrParts> parts = graph_internal::BuildCsrParallel(
      num_nodes, tasks,
      undirected ? graph_internal::ArcSet::kExpandReverse
                 : graph_internal::ArcSet::kDirected,
      /*validate=*/true);
  if (!parts.ok()) return parts.status();
  task_edges.clear();
  return Graph::FromCsr(num_nodes, std::move(parts).value(), undirected);
}

Result<Graph> GraphBuilder::Build() {
  if (built_) {
    return Status::FailedPrecondition("GraphBuilder::Build called twice");
  }
  built_ = true;

  // Edges already passed AddEdge validation (and undirected reverse arcs
  // were inserted there), so the tasks are plain fixed chunks of the
  // accumulated arc sequence — any chunking of the same sequence assembles
  // the identical graph.
  constexpr int64_t kArcsPerTask = int64_t{1} << 15;
  constexpr int64_t kMaxTasks = 256;
  const int64_t num_arcs = static_cast<int64_t>(edges_.size());
  const int64_t num_tasks =
      std::clamp<int64_t>(num_arcs / kArcsPerTask, 1, kMaxTasks);
  const int64_t per_task = (num_arcs + num_tasks - 1) / num_tasks;
  std::vector<std::span<const Edge>> tasks;
  tasks.reserve(static_cast<size_t>(num_tasks));
  for (int64_t begin = 0; begin < num_arcs; begin += per_task) {
    tasks.emplace_back(edges_.data() + begin,
                       static_cast<size_t>(std::min(per_task, num_arcs - begin)));
  }
  Result<graph_internal::CsrParts> parts = graph_internal::BuildCsrParallel(
      num_nodes_, tasks,
      undirected_ ? graph_internal::ArcSet::kSymmetric
                  : graph_internal::ArcSet::kDirected,
      /*validate=*/false);
  if (!parts.ok()) return parts.status();
  edges_.clear();
  edges_.shrink_to_fit();
  return Graph::FromCsr(num_nodes_, std::move(parts).value(), undirected_);
}

namespace {

Graph RebuildWithWeights(const Graph& graph,
                         const std::function<float(NodeId, NodeId)>& weight_fn) {
  GraphBuilder builder(graph.num_nodes(), /*undirected=*/false);
  builder.Reserve(graph.num_arcs());
  graph.ForEachArc([&](NodeId u, NodeId v, float /*w*/) {
    // Endpoints come from a valid graph; AddEdge cannot fail.
    (void)builder.AddEdge(u, v, weight_fn(u, v));
  });
  Result<Graph> result = builder.Build();
  return std::move(result).value();
}

}  // namespace

Graph WithUniformWeights(const Graph& graph, float weight) {
  return RebuildWithWeights(graph, [weight](NodeId, NodeId) { return weight; });
}

Graph WithWeightedCascadeWeights(const Graph& graph) {
  return RebuildWithWeights(graph, [&graph](NodeId, NodeId v) {
    const int64_t in_degree = graph.InDegree(v);
    return in_degree > 0 ? 1.0f / static_cast<float>(in_degree) : 0.0f;
  });
}

Graph WithPermutedNodeIds(const Graph& graph, Rng* rng) {
  std::vector<NodeId> new_id(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) new_id[v] = v;
  rng->Shuffle(&new_id);
  GraphBuilder builder(graph.num_nodes(), /*undirected=*/false);
  builder.Reserve(graph.num_arcs());
  graph.ForEachArc([&](NodeId u, NodeId v, float w) {
    (void)builder.AddEdge(new_id[u], new_id[v], w);
  });
  Result<Graph> result = builder.Build();
  return std::move(result).value();
}

}  // namespace privim
