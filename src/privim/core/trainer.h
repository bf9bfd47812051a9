// Algorithm 2: differentially private GNN training.
//
// Each subgraph in the sampled mini-batch is treated as one "example":
// its Eq. 5 loss gradient is computed, l2-clipped at C, the clipped
// gradients are summed, Gaussian noise N(0, sigma^2 Delta_g^2 I) with
// Delta_g = C * N_g (Lemma 2) is added, and the model steps by
// eta / B times the privatized gradient. Setting noise_multiplier = 0
// recovers non-private mini-batch SGD (the epsilon = infinity baseline).

#ifndef PRIVIM_CORE_TRAINER_H_
#define PRIVIM_CORE_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "privim/common/rng.h"
#include "privim/core/loss.h"
#include "privim/gnn/models.h"
#include "privim/nn/optimizer.h"
#include "privim/sampling/subgraph_container.h"

namespace privim {

/// Per-subgraph training objective over the model's (n x 1) output
/// `scores`. The default is the Eq. 5 influence loss; the Sec. VI
/// extensions (max-cut, node classification) plug in their own objectives
/// through this hook. `subgraph` provides the local->global id mapping for
/// objectives that need per-node supervision.
///
/// The trainer runs the model through its compiled program, hands the hook
/// a leaf holding the scores, calls Backward() on the returned scalar and
/// passes the leaf's gradient to the program's reverse pass. The objective
/// must therefore depend on the model only through `scores`. Its `ctx`
/// holds every operator (GraphContext::kAllParts); without a hook, a
/// subgraph's context holds only what the program and Eq. 5 read.
///
/// Thread safety: with `DpSgdOptions::parallel` (the default) the hook is
/// invoked concurrently from pool workers, each with its own scratch
/// buffers. The hook must not mutate shared state without synchronization;
/// captured read-only data (label tables, option structs) is fine.
using SubgraphLossFn = std::function<Result<Variable>(
    const Variable& scores, const GraphContext& ctx,
    const Subgraph& subgraph)>;

/// Noise distribution added to the summed clipped gradients. PrivIM uses
/// Gaussian (Alg. 2); the HP baseline uses Symmetric Multivariate Laplace.
enum class NoiseKind { kGaussian, kSml };

/// Update rule applied to the privatized gradient. Alg. 2 uses plain SGD;
/// momentum and Adam operate on the already-noised gradient, so the privacy
/// guarantee is unchanged (post-processing).
enum class OptimizerKind { kSgd, kMomentum, kAdam };

/// Read-only view of the live training state, handed to the checkpoint
/// hook after each completed iteration. Everything pointed at stays valid
/// only for the duration of the hook call.
struct TrainCheckpointView {
  int64_t next_iteration = 0;    ///< iterations completed so far (t + 1)
  int64_t total_iterations = 0;  ///< T
  double mean_loss_first = 0.0;
  double mean_loss_last = 0.0;   ///< most recent iteration's mean loss
  const GnnModel* model = nullptr;
  const Optimizer* optimizer = nullptr;
  const Rng* rng = nullptr;      ///< stream position *after* the iteration
};

/// Checkpoint hook; a non-OK return aborts training (a checkpoint that
/// cannot be written must not let the run silently continue past it).
using CheckpointFn = std::function<Status(const TrainCheckpointView&)>;

/// Resume point for TrainDpGnn. The caller restores model weights and the
/// RNG stream position before calling; the trainer restores the optimizer
/// state and skips the first `start_iteration` iterations.
struct TrainResume {
  int64_t start_iteration = 0;  ///< iterations already completed
  double mean_loss_first = 0.0;
  double mean_loss_last = 0.0;
  OptimizerState optimizer;
};

struct DpSgdOptions {
  int64_t batch_size = 32;       ///< B
  int64_t iterations = 80;       ///< T
  float learning_rate = 0.005f;  ///< eta_t (paper Sec. V-A)
  float clip_bound = 1.0f;       ///< C
  double noise_multiplier = 0.0; ///< sigma; 0 disables noise (non-private)
  int64_t occurrence_bound = 1;  ///< N_g in Delta_g = C * N_g
  NoiseKind noise_kind = NoiseKind::kGaussian;
  OptimizerKind optimizer = OptimizerKind::kSgd;
  float momentum = 0.9f;  ///< used when optimizer == kMomentum
  InfluenceLossOptions loss;
  /// When set, overrides the Eq. 5 objective (the `loss` field is ignored).
  SubgraphLossFn loss_fn;
  /// Compute the batch's per-subgraph gradients on the global thread pool
  /// (Alg. 2 lines 4-6), one scratch per worker chunk over the shared
  /// read-only model. The clipped per-subgraph gradients are reduced in
  /// fixed batch order before the noise step, so the result is
  /// bit-identical to the serial path at any thread count and the privacy
  /// accounting is unchanged.
  bool parallel = true;
  /// When set, called after every completed iteration (before the
  /// fault-injection hook) with the state a snapshot needs.
  CheckpointFn checkpoint_fn;
  /// When set, training resumes mid-run instead of starting fresh. Not
  /// owned; must outlive the TrainDpGnn call.
  const TrainResume* resume = nullptr;

  Status Validate() const;
};

struct TrainStats {
  double setup_seconds = 0.0;      ///< lazy context/feature builds (total)
  double training_seconds = 0.0;   ///< total time in the T iterations
  double mean_loss_first = 0.0;    ///< mean per-batch loss, first iteration
  double mean_loss_last = 0.0;     ///< mean per-batch loss, last iteration
  int64_t iterations = 0;
};

/// Trains `model` in place on the container. Deterministic in (*rng).
/// Each subgraph's gradient comes from the model's compiled program
/// (nn/infer/compile.h), which every model has: its forward, the objective
/// on the tape over the scores, and the program's reverse pass —
/// byte-equal to a tape Backward() through model.Forward(), which
/// tests/nn/infer_checker_test.cpp and the trainer replay test pin.
Result<TrainStats> TrainDpGnn(GnnModel* model,
                              const SubgraphContainer& container,
                              const DpSgdOptions& options, Rng* rng);

}  // namespace privim

#endif  // PRIVIM_CORE_TRAINER_H_
