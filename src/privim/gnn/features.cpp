#include "privim/gnn/features.h"

#include <cassert>
#include <cmath>

namespace privim {
namespace {

// SplitMix64-style avalanche for stable per-(node, channel) noise.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Tensor BuildNodeFeatures(const Graph& graph, int64_t dim,
                         const std::vector<NodeId>* global_ids,
                         uint64_t salt) {
  assert(global_ids == nullptr ||
         static_cast<int64_t>(global_ids->size()) == graph.num_nodes());
  Tensor features(graph.num_nodes(), dim);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const uint64_t identity =
        global_ids ? static_cast<uint64_t>((*global_ids)[v])
                   : static_cast<uint64_t>(v);
    if (dim > 0) features.at(v, 0) = 1.0f;
    if (dim > 1) {
      features.at(v, 1) =
          std::log1p(static_cast<float>(graph.OutDegree(v))) / 2.0f;
    }
    if (dim > 2) {
      features.at(v, 2) =
          std::log1p(static_cast<float>(graph.InDegree(v))) / 2.0f;
    }
    for (int64_t c = 3; c < dim; ++c) {
      const uint64_t h = Mix(salt + identity * 0x9e3779b97f4a7c15ULL +
                             static_cast<uint64_t>(c));
      features.at(v, c) =
          static_cast<float>(h >> 11) * 0x1.0p-53f - 0.5f;
    }
  }
  return features;
}

}  // namespace privim
