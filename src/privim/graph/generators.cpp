#include "privim/graph/generators.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace privim {
namespace {

// Packs an arc into a set key for dedup during sampling.
uint64_t ArcKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

}  // namespace

Result<Graph> BarabasiAlbert(int64_t num_nodes, int64_t edges_per_node,
                             Rng* rng) {
  if (edges_per_node < 1) {
    return Status::InvalidArgument("edges_per_node must be >= 1");
  }
  if (num_nodes <= edges_per_node) {
    return Status::InvalidArgument("need num_nodes > edges_per_node");
  }
  GraphBuilder builder(num_nodes, /*undirected=*/true);
  builder.Reserve(num_nodes * edges_per_node);
  // `targets` holds one entry per edge endpoint, so uniform sampling from it
  // is sampling proportional to degree (the classic repeated-nodes trick).
  std::vector<NodeId> endpoint_pool;
  endpoint_pool.reserve(static_cast<size_t>(num_nodes * edges_per_node * 2));

  // Seed clique-ish core: a star over the first m+1 nodes.
  for (NodeId v = 1; v <= edges_per_node; ++v) {
    PRIVIM_RETURN_NOT_OK(builder.AddEdge(0, v));
    endpoint_pool.push_back(0);
    endpoint_pool.push_back(v);
  }

  std::unordered_set<NodeId> chosen;
  for (NodeId v = static_cast<NodeId>(edges_per_node + 1); v < num_nodes; ++v) {
    chosen.clear();
    while (static_cast<int64_t>(chosen.size()) < edges_per_node) {
      const NodeId target =
          endpoint_pool[rng->NextBounded(endpoint_pool.size())];
      if (target == v) continue;
      chosen.insert(target);
    }
    for (NodeId target : chosen) {
      PRIVIM_RETURN_NOT_OK(builder.AddEdge(v, target));
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  return builder.Build();
}

Result<Graph> WattsStrogatz(int64_t num_nodes, int64_t mean_degree,
                            double beta, Rng* rng) {
  if (mean_degree < 2 || mean_degree % 2 != 0) {
    return Status::InvalidArgument("mean_degree must be even and >= 2");
  }
  if (num_nodes <= mean_degree) {
    return Status::InvalidArgument("need num_nodes > mean_degree");
  }
  if (beta < 0.0 || beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0, 1]");
  }
  const int64_t half = mean_degree / 2;
  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(num_nodes * half) * 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(num_nodes * half));
  auto canonical_key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return ArcKey(a, b);
  };
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (int64_t k = 1; k <= half; ++k) {
      NodeId v = static_cast<NodeId>((u + k) % num_nodes);
      if (rng->NextBernoulli(beta)) {
        // Rewire to a uniform non-duplicate target.
        for (int attempt = 0; attempt < 64; ++attempt) {
          const NodeId candidate =
              static_cast<NodeId>(rng->NextBounded(num_nodes));
          if (candidate == u) continue;
          if (seen.count(canonical_key(u, candidate))) continue;
          v = candidate;
          break;
        }
      }
      if (v == u) continue;
      if (!seen.insert(canonical_key(u, v)).second) continue;
      edges.push_back({u, v, 1.0f});
    }
  }
  GraphBuilder builder(num_nodes, /*undirected=*/true);
  PRIVIM_RETURN_NOT_OK(builder.AddEdges(edges));
  return builder.Build();
}

Result<Graph> DirectedPreferentialAttachment(int64_t num_nodes,
                                             int64_t out_edges_per_node,
                                             Rng* rng) {
  if (out_edges_per_node < 1) {
    return Status::InvalidArgument("out_edges_per_node must be >= 1");
  }
  if (num_nodes <= out_edges_per_node) {
    return Status::InvalidArgument("need num_nodes > out_edges_per_node");
  }
  GraphBuilder builder(num_nodes, /*undirected=*/false);
  builder.Reserve(num_nodes * out_edges_per_node);
  // Pool of arc targets plus one smoothing entry per node (in-degree + 1).
  std::vector<NodeId> target_pool;
  target_pool.reserve(static_cast<size_t>(num_nodes * out_edges_per_node));

  std::unordered_set<NodeId> chosen;
  for (NodeId v = 1; v < num_nodes; ++v) {
    const int64_t arcs = std::min<int64_t>(out_edges_per_node, v);
    chosen.clear();
    while (static_cast<int64_t>(chosen.size()) < arcs) {
      NodeId target;
      // Smoothing: with probability proportional to the v existing nodes,
      // pick uniformly (the "+1" term); otherwise pick from the pool.
      const uint64_t total = static_cast<uint64_t>(v) + target_pool.size();
      const uint64_t pick = rng->NextBounded(total);
      if (pick < static_cast<uint64_t>(v)) {
        target = static_cast<NodeId>(pick);
      } else {
        target = target_pool[pick - static_cast<uint64_t>(v)];
      }
      if (target == v) continue;
      chosen.insert(target);
    }
    for (NodeId target : chosen) {
      PRIVIM_RETURN_NOT_OK(builder.AddEdge(v, target));
      target_pool.push_back(target);
    }
  }
  return builder.Build();
}

}  // namespace privim
