#include "privim/graph/graph.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "privim/graph/partitioned.h"

namespace privim {

Graph Graph::FromCsr(int64_t num_nodes, graph_internal::CsrParts parts) {
  Graph graph;
  graph.num_nodes_ = num_nodes;
  graph.out_offsets_ = std::move(parts.out_offsets);
  graph.out_neighbors_ = std::move(parts.out_neighbors);
  graph.out_weights_ = std::move(parts.out_weights);
  graph.in_offsets_ = std::move(parts.in_offsets);
  graph.in_neighbors_ = std::move(parts.in_neighbors);
  graph.in_weights_ = std::move(parts.in_weights);
  return graph;
}

Graph GraphBuilder::FromParts(int64_t num_nodes, bool undirected,
                              graph_internal::CsrParts parts) {
  Graph graph = Graph::FromCsr(num_nodes, std::move(parts));
  graph.undirected_ = undirected;
  graph_internal::RecordBuildMetrics(
      static_cast<int64_t>(graph.out_neighbors_.size() * sizeof(NodeId) * 2 +
                           graph.out_weights_.size() * sizeof(float) * 2 +
                           graph.out_offsets_.size() * sizeof(int64_t) * 2),
      /*parallel=*/true);
  return graph;
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
      num_nodes, tasks, /*expand_reverse=*/undirected, /*validate=*/true);
  if (!parts.ok()) return parts.status();
  task_edges.clear();
  return FromParts(num_nodes, undirected, std::move(parts).value());
}

Result<Graph> GraphBuilder::Build() {
  if (built_) {
    return Status::FailedPrecondition("GraphBuilder::Build called twice");
  }
  built_ = true;

  if (static_cast<int64_t>(edges_.size()) >= kParallelBuildMinArcs) {
    // Sharded parallel assembly. Edges already passed AddEdge validation
    // (and undirected reverse arcs were inserted there), so the tasks are
    // plain fixed chunks of the accumulated arc sequence — any chunking of
    // the same sequence assembles the identical graph.
    constexpr int64_t kArcsPerTask = int64_t{1} << 15;
    constexpr int64_t kMaxTasks = 256;
    const int64_t num_tasks =
        std::clamp<int64_t>(static_cast<int64_t>(edges_.size()) / kArcsPerTask,
                            1, kMaxTasks);
    const int64_t per_task =
        (static_cast<int64_t>(edges_.size()) + num_tasks - 1) / num_tasks;
    std::vector<std::span<const Edge>> tasks;
    tasks.reserve(static_cast<size_t>(num_tasks));
    for (int64_t t = 0; t < num_tasks; ++t) {
      const int64_t begin = t * per_task;
      const int64_t end =
          std::min<int64_t>(begin + per_task, static_cast<int64_t>(edges_.size()));
      if (begin >= end) break;
      tasks.emplace_back(edges_.data() + begin,
                         static_cast<size_t>(end - begin));
    }
    Result<graph_internal::CsrParts> parts = graph_internal::BuildCsrParallel(
        num_nodes_, tasks, /*expand_reverse=*/false, /*validate=*/false);
    if (!parts.ok()) return parts.status();
    edges_.clear();
    edges_.shrink_to_fit();
    return FromParts(num_nodes_, undirected_, std::move(parts).value());
  }

  // The sort must be stable so the documented dedup contract ("keep the
  // first weight") holds among equal endpoints — and so this path stays
  // byte-identical to the parallel one, whose per-shard sorts are stable.
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               edges_.end());

  Graph graph;
  graph.num_nodes_ = num_nodes_;
  graph.undirected_ = undirected_;

  graph.out_offsets_.assign(num_nodes_ + 1, 0);
  graph.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++graph.out_offsets_[e.src + 1];
    ++graph.in_offsets_[e.dst + 1];
  }
  for (int64_t v = 0; v < num_nodes_; ++v) {
    graph.out_offsets_[v + 1] += graph.out_offsets_[v];
    graph.in_offsets_[v + 1] += graph.in_offsets_[v];
  }

  graph.out_neighbors_.resize(edges_.size());
  graph.out_weights_.resize(edges_.size());
  graph.in_neighbors_.resize(edges_.size());
  graph.in_weights_.resize(edges_.size());

  // Edges are sorted by (src, dst), so the out-CSR fills sequentially and
  // stays sorted; track a per-node cursor for the in-CSR.
  std::vector<int64_t> in_cursor(graph.in_offsets_.begin(),
                                 graph.in_offsets_.end() - 1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    graph.out_neighbors_[i] = e.dst;
    graph.out_weights_[i] = e.weight;
    const int64_t slot = in_cursor[e.dst]++;
    graph.in_neighbors_[slot] = e.src;
    graph.in_weights_[slot] = e.weight;
  }
  // In-neighbor lists come out sorted by source automatically because the
  // outer iteration is sorted by src.

  edges_.clear();
  edges_.shrink_to_fit();
  return graph;
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
