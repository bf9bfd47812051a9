// The five GNN architectures evaluated in the paper (Sec. V-E, Appendix G):
// GCN, GraphSAGE, GAT, GRAT (source-normalized attention, the default) and
// GIN. Each model maps (graph, node features) to a per-node probability of
// being selected into the seed set (sigmoid head), which the Eq. 5 loss and
// top-k seed selection consume.

#ifndef PRIVIM_GNN_MODELS_H_
#define PRIVIM_GNN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "privim/common/rng.h"
#include "privim/common/status.h"
#include "privim/gnn/graph_context.h"
#include "privim/nn/arena.h"
#include "privim/nn/autograd.h"

namespace privim {

enum class GnnKind { kGcn, kSage, kGat, kGrat, kGin };

/// Parses "gcn" / "sage" / "gat" / "grat" / "gin".
Result<GnnKind> GnnKindFromString(const std::string& name);
const char* GnnKindToString(GnnKind kind);

struct GnnConfig {
  GnnKind kind = GnnKind::kGrat;
  int64_t input_dim = 8;
  int64_t hidden_dim = 32;   ///< paper: 32 hidden units per layer
  int64_t num_layers = 3;    ///< paper: three-layer models
  float leaky_slope = 0.2f;  ///< LeakyReLU slope in attention scores
};

/// A GNN whose Forward emits an (n x 1) column of seed probabilities.
class GnnModel {
 public:
  virtual ~GnnModel() = default;

  /// Runs the model. `features` must be (ctx.num_nodes x input_dim).
  virtual Variable Forward(const GraphContext& ctx,
                           const Variable& features) const = 0;

  /// Validated Forward for library callers fed with external input (the
  /// inference probe, serving's tape path): checks that `features` is
  /// (ctx.num_nodes x input_dim) and returns InvalidArgument instead of
  /// tripping the shape asserts inside the ops. Hot training loops that
  /// construct their own matching features keep calling Forward directly.
  /// When `pools` is non-null, the forward tape draws its tensor and node
  /// storage from it (and returns it there), so repeated calls with the
  /// same pools are allocation-free after the first.
  Result<Variable> Run(const GraphContext& ctx, const Tensor& features,
                       nn::MemoryPools* pools = nullptr) const;

  /// Trainable parameters, in a stable order (DP-SGD flattening relies on
  /// this order being identical across calls).
  const std::vector<Variable>& parameters() const { return params_; }

  const GnnConfig& config() const { return config_; }

  /// Deep-copies parameter values from `other` (same architecture).
  Status CopyParametersFrom(const GnnModel& other);

 protected:
  explicit GnnModel(GnnConfig config) : config_(config) {}

  /// Registers a Glorot-initialized weight matrix.
  Variable AddParameter(int64_t rows, int64_t cols, Rng* rng);
  /// Registers a zero-initialized parameter (biases, GIN epsilon).
  Variable AddZeroParameter(int64_t rows, int64_t cols);

  GnnConfig config_;
  std::vector<Variable> params_;
};

/// Builds a model of the configured kind with freshly initialized weights.
Result<std::unique_ptr<GnnModel>> CreateGnnModel(const GnnConfig& config,
                                                 Rng* rng);

}  // namespace privim

#endif  // PRIVIM_GNN_MODELS_H_
