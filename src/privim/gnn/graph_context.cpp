#include "privim/gnn/graph_context.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace privim {

GraphContext GraphContext::Build(const Graph& graph, uint32_t parts) {
  GraphContext ctx;
  const int64_t n = graph.num_nodes();
  const int64_t arcs = graph.num_arcs();
  ctx.num_nodes = n;
  ctx.parts = parts;
  const bool influence = (parts & kInfluenceAdj) != 0;
  const bool gcn = (parts & kGcnAdj) != 0;
  const bool mean_in = (parts & kMeanInAdj) != 0;
  const bool sum_in = (parts & kSumInAdj) != 0;
  const bool arc_lists = (parts & kArcLists) != 0;
  const bool attention = (parts & kAttentionLists) != 0;

  std::vector<Triplet> influence_t;
  std::vector<Triplet> gcn_t;
  std::vector<Triplet> mean_in_t;
  std::vector<Triplet> sum_in_t;
  if (influence) influence_t.reserve(arcs);
  if (gcn) gcn_t.reserve(arcs + n);
  if (mean_in) mean_in_t.reserve(arcs);
  if (sum_in) sum_in_t.reserve(arcs);

  // The attention lists are the arc lists followed by one self-loop per
  // node, so the arc pass writes straight into them when they are wanted.
  std::vector<int32_t>& src_list = attention ? ctx.attention_src : ctx.arc_src;
  std::vector<int32_t>& dst_list = attention ? ctx.attention_dst : ctx.arc_dst;
  if (arc_lists || attention) {
    src_list.reserve(arcs + (attention ? n : 0));
    dst_list.reserve(arcs + (attention ? n : 0));
  }

  for (NodeId v = 0; v < n; ++v) {
    const auto sources = graph.InNeighbors(v);
    const auto weights = graph.InWeights(v);
    if (influence) {
      for (size_t i = 0; i < sources.size(); ++i) {
        influence_t.push_back({v, sources[i], weights[i]});
      }
    }
    if (gcn) {
      const double dv = static_cast<double>(sources.size()) + 1.0;
      const auto arc_entry = [&](NodeId u) {
        const double du = static_cast<double>(graph.InDegree(u)) + 1.0;
        gcn_t.push_back({v, u, static_cast<float>(1.0 / std::sqrt(dv * du))});
      };
      // Sources ascend, so the self-loop goes in at its sorted position and
      // the triplets stay row-major: BuildCsr then skips its sort.
      const auto split = std::upper_bound(sources.begin(), sources.end(), v);
      std::for_each(sources.begin(), split, arc_entry);
      gcn_t.push_back({v, v, static_cast<float>(1.0 / dv)});
      std::for_each(split, sources.end(), arc_entry);
    }
    if (mean_in) {
      const float inv_din =
          sources.empty() ? 0.0f : 1.0f / static_cast<float>(sources.size());
      for (const NodeId u : sources) mean_in_t.push_back({v, u, inv_din});
    }
    if (sum_in) {
      for (const NodeId u : sources) sum_in_t.push_back({v, u, 1.0f});
    }
    if (arc_lists || attention) {
      for (const NodeId u : sources) {
        src_list.push_back(u);
        dst_list.push_back(v);
      }
    }
  }

  if (attention) {
    if (arc_lists) {
      ctx.arc_src = ctx.attention_src;
      ctx.arc_dst = ctx.attention_dst;
    }
    for (NodeId v = 0; v < n; ++v) {
      ctx.attention_src.push_back(v);
      ctx.attention_dst.push_back(v);
    }
  }

  if (influence) {
    ctx.influence_adj = MakeSparseCsr(n, n, std::move(influence_t));
  }
  if (gcn) ctx.gcn_adj = MakeSparseCsr(n, n, std::move(gcn_t));
  if (mean_in) ctx.mean_in_adj = MakeSparseCsr(n, n, std::move(mean_in_t));
  if (sum_in) ctx.sum_in_adj = MakeSparseCsr(n, n, std::move(sum_in_t));
  return ctx;
}

}  // namespace privim
