// EGN baseline: "Erdos Goes Neural" (Karalias & Loukas, NeurIPS'20) adapted
// to node-level DP with DP-SGD, as the paper does for comparison (Sec. V-A).
//
// EGN trains the same probabilistic-penalty objective but samples training
// subgraphs with unconstrained random walks — no in-degree projection, no
// hop limit, no frequency control. Without any structural cap, the only
// a-priori bound on a node's occurrences across the container is the
// container size itself, which is what the accountant must use; the
// resulting noise is what makes EGN the weakest private baseline (Sec. V-B).

#ifndef PRIVIM_BASELINES_EGN_H_
#define PRIVIM_BASELINES_EGN_H_

#include "privim/core/pipeline.h"
#include "privim/sampling/subgraph_container.h"

namespace privim {

struct EgnOptions {
  GnnConfig gnn;  ///< defaults overridden to a 3-layer GCN in RunEgn
  int64_t subgraph_size = 40;
  double restart_probability = 0.3;
  double sampling_rate = 0.0;  ///< <= 0 means 256 / |V_train|
  int64_t walk_length = 200;

  int64_t batch_size = 32;
  int64_t iterations = 80;
  float learning_rate = 0.005f;
  float clip_bound = 1.0f;
  InfluenceLossOptions loss;

  double epsilon = 4.0;  ///< <= 0 or +inf: non-private
  double delta = 0.0;    ///< <= 0: 1 / |V_train|
  int64_t seed_set_size = 50;
};

/// EGN's original subgraph sampling: each node starts a walk with
/// probability `sampling_rate` (one draw of `rng` per node, in id order),
/// and the walk runs with restart on the undirected structure with a
/// uniform neighbour choice, no hop limit and no frequency control. Walks
/// draw from `rng` too, so they run serially.
Result<SubgraphContainer> SampleUnconstrainedWalks(const Graph& graph,
                                                   const EgnOptions& options,
                                                   double sampling_rate,
                                                   Rng* rng);

/// Trains EGN on `train_graph`, scores and selects seeds on `eval_graph`.
Result<PrivImResult> RunEgn(const Graph& train_graph, const Graph& eval_graph,
                            const EgnOptions& options, uint64_t seed);

}  // namespace privim

#endif  // PRIVIM_BASELINES_EGN_H_
