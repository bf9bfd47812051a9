#include "privim/im/ris.h"

#include <limits>
#include <utility>

#include "privim/im/sketch/sketch_index.h"

namespace privim {

Status RisOptions::Validate() const {
  if (num_rr_sets < 1) {
    return Status::InvalidArgument("num_rr_sets must be >= 1");
  }
  if (num_rr_sets > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("num_rr_sets must fit in 32 bits");
  }
  return Status::OK();
}

void AppendReverseReachable(const Graph& graph, NodeId target,
                            int64_t max_steps, Rng* rng,
                            ReverseReachScratch* scratch,
                            std::vector<NodeId>* out) {
  std::vector<uint8_t>& reached = scratch->reached;
  std::vector<NodeId>& frontier = scratch->frontier;
  std::vector<NodeId>& next_frontier = scratch->next_frontier;
  const size_t begin = out->size();
  out->push_back(target);
  reached[target] = 1;
  frontier.assign(1, target);
  for (int64_t step = 0;
       !frontier.empty() && (max_steps < 0 || step < max_steps); ++step) {
    next_frontier.clear();
    for (const NodeId v : frontier) {
      const auto sources = graph.InNeighbors(v);
      const auto weights = graph.InWeights(v);
      for (size_t i = 0; i < sources.size(); ++i) {
        const NodeId u = sources[i];
        if (reached[u]) continue;
        if (rng == nullptr || weights[i] >= 1.0f ||
            rng->NextBernoulli(weights[i])) {
          reached[u] = 1;
          next_frontier.push_back(u);
          out->push_back(u);
        }
      }
    }
    frontier.swap(next_frontier);
  }
  // Reset only the touched bytes, so one scratch serves every walk.
  for (size_t i = begin; i < out->size(); ++i) reached[(*out)[i]] = 0;
}

Result<RisResult> RisSeedSelection(const Graph& graph, int64_t k,
                                   const RisOptions& options, Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const int64_t n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");

  // Each set draws its target, then its coin flips, from the caller's rng.
  std::vector<std::vector<NodeId>> pool;
  ReverseReachScratch scratch(n);
  for (int64_t s = 0; s < options.num_rr_sets; ++s) {
    const NodeId target = static_cast<NodeId>(
        rng->NextBounded(static_cast<uint64_t>(n)));
    AppendReverseReachable(graph, target, options.max_steps, rng, &scratch,
                           &pool.emplace_back());
  }

  Result<SketchTopKResult> top =
      SketchIndex::FromPool(n, options.max_steps, pool)->TopK(k);
  if (!top.ok()) return top.status();
  RisResult result;
  result.seeds = std::move(top->seeds);
  result.estimated_spread = top->spread;
  result.rr_sets_generated = options.num_rr_sets;
  return result;
}

}  // namespace privim
