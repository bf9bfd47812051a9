// Node feature construction.
//
// The paper does not prescribe a feature matrix X beyond "each node has a
// d-dimensional embedding"; like the EGN / FastCover line of work the input
// is structural. We use a deterministic recipe: a constant channel, smoothed
// in/out-degree channels, and hash-seeded pseudo-random channels that give
// nodes distinguishable embeddings without any external data. The recipe is
// local (depends only on a node's own degree), so it does not enlarge the
// node-level sensitivity analysis of Lemma 2.

#ifndef PRIVIM_GNN_FEATURES_H_
#define PRIVIM_GNN_FEATURES_H_

#include "privim/graph/graph.h"
#include "privim/nn/tensor.h"

namespace privim {

/// Builds an (n x dim) feature matrix for `graph`. `dim` must be >= 1.
/// Channels: [0]=1, [1]=log1p(out_degree)/2, [2]=log1p(in_degree)/2,
/// [3..]=deterministic hash noise in [-0.5, 0.5] seeded by (node_salt + id).
/// Passing the node's *global* id as salt keeps a node's features identical
/// in every subgraph it appears in; `global_ids`, when given, holds one id
/// per node of `graph`.
Tensor BuildNodeFeatures(const Graph& graph, int64_t dim,
                         const std::vector<NodeId>* global_ids = nullptr,
                         uint64_t salt = 0x5bd1e995u);

}  // namespace privim

#endif  // PRIVIM_GNN_FEATURES_H_
