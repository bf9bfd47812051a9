// The five GNN architectures evaluated in the paper (Sec. V-E, Appendix G):
// GCN, GraphSAGE, GAT, GRAT (source-normalized attention, the default) and
// GIN. Each model maps (graph, node features) to a per-node probability of
// being selected into the seed set (sigmoid head), which the Eq. 5 loss and
// top-k seed selection consume.
//
// A GnnModel is one of these five kinds and nothing else: its config plus
// its parameters, laid out as ParamLayout declares. Only CreateGnnModel and
// ReadGnnModel (gnn/serialization.h) build one, so every model compiles to
// the fused program (nn/infer/compile.h). Forward() is the autograd tape
// forward of that program; it is the test oracle the program is checked
// against, not the path that training, selection or serving run.

#ifndef PRIVIM_GNN_MODELS_H_
#define PRIVIM_GNN_MODELS_H_

#include <iosfwd>
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

/// What a parameter is for.
enum class ParamRole {
  kWeight,      ///< the layer's (or head's) weight; GIN's first MLP weight
  kBias,        ///< the layer's (or head's) bias row; GIN's first MLP bias
  kAttnSrc,     ///< GAT/GRAT: the source half of the attention vector
  kAttnDst,     ///< GAT/GRAT: the destination half
  kMlp2Weight,  ///< GIN: the second MLP weight
  kMlp2Bias,    ///< GIN: the second MLP bias
  kOmega,       ///< GIN: the learnable (1 + omega) self-weight, 1 x 1
};

/// The shape and initializer of one parameter tensor of a layout.
struct ParamSpec {
  int64_t rows = 0;
  int64_t cols = 0;
  bool glorot = false;  ///< a Glorot-uniform draw at creation; else zeros
};

/// The one declaration of every architecture's parameters, in
/// GnnModel::parameters() order. The head's weight (h x 1) and bias (1 x 1)
/// come first, then each layer's, where `in` is the layer's input width
/// (input_dim for layer 0, h = hidden_dim after):
///
///   GCN        W (in x h), b (1 x h)
///   SAGE       W (2in x h), b (1 x h)     W multiplies [h | mean]
///   GAT, GRAT  W (in x h), a_src (h x 1), a_dst (h x 1), b (1 x h)
///   GIN        W (in x h), b (1 x h), W2 (h x h), b2 (1 x h), omega (1 x 1)
///
/// Weights and attention vectors are Glorot draws, taken in this order;
/// biases and omega start at zero. CreateGnnModel, ReadGnnModel, the tape
/// Forward() and the compiler all read it, so none of them can disagree.
/// A spec is computed on demand, so a layout costs nothing to hold whatever
/// the configured sizes.
class ParamLayout {
 public:
  static constexpr int64_t kHead = -1;

  /// InvalidArgument unless the kind is one of the five, every dimension
  /// is positive, and the parameter count and the total element count both
  /// fit in int64_t.
  static Result<ParamLayout> Of(const GnnConfig& config);

  const GnnConfig& config() const { return config_; }
  /// Number of parameter tensors.
  int64_t size() const;
  /// Parameter `index`, 0 <= index < size().
  ParamSpec at(int64_t index) const;
  /// Where `layer`'s `role` parameter sits in parameters() (kHead: the
  /// head's). The kind must have that role.
  int64_t IndexOf(int64_t layer, ParamRole role) const;

 private:
  explicit ParamLayout(const GnnConfig& config) : config_(config) {}

  GnnConfig config_;
};

/// A GNN whose Forward emits an (n x 1) column of seed probabilities.
class GnnModel final {
 public:
  /// The tape forward. `features` must be (ctx.num_nodes x input_dim).
  Variable Forward(const GraphContext& ctx, const Variable& features) const;

  /// Validated Forward for callers fed with external input: checks that
  /// `features` is (ctx.num_nodes x input_dim) and returns InvalidArgument
  /// instead of tripping the shape asserts inside the ops. When `pools` is
  /// non-null, the forward tape draws its tensor and node storage from it
  /// (and returns it there), so repeated calls with the same pools are
  /// allocation-free after the first.
  Result<Variable> Run(const GraphContext& ctx, const Tensor& features,
                       nn::MemoryPools* pools = nullptr) const;

  /// Trainable parameters in ParamLayout order (DP-SGD flattening relies on
  /// this order being identical across calls).
  const std::vector<Variable>& parameters() const { return params_; }

  /// `layer`'s `role` parameter; layer ParamLayout::kHead is the head.
  const Variable& param(int64_t layer, ParamRole role) const {
    return params_[static_cast<size_t>(layout_.IndexOf(layer, role))];
  }

  const GnnConfig& config() const { return layout_.config(); }

  /// Deep-copies parameter values from `other` (same architecture).
  Status CopyParametersFrom(const GnnModel& other);

 private:
  friend Result<std::unique_ptr<GnnModel>> CreateGnnModel(
      const GnnConfig& config, Rng* rng);
  friend Result<std::unique_ptr<GnnModel>> ReadGnnModel(std::istream& in);

  /// `params` must have `layout`'s shapes.
  GnnModel(ParamLayout layout, std::vector<Variable> params)
      : layout_(layout), params_(std::move(params)) {}

  /// The shared sigmoid output head p = sigmoid(H W_out + b_out).
  Variable Head(const Variable& hidden) const;
  Variable GcnForward(const GraphContext& ctx, const Variable& features) const;
  Variable SageForward(const GraphContext& ctx,
                       const Variable& features) const;
  Variable GinForward(const GraphContext& ctx, const Variable& features) const;
  Variable AttentionForward(const GraphContext& ctx,
                            const Variable& features) const;

  ParamLayout layout_;
  std::vector<Variable> params_;
};

/// Builds a model of the configured kind with freshly initialized weights:
/// ParamLayout's Glorot draws from `rng`, in layout order. InvalidArgument
/// when ParamLayout::Of rejects the config.
Result<std::unique_ptr<GnnModel>> CreateGnnModel(const GnnConfig& config,
                                                 Rng* rng);

}  // namespace privim

#endif  // PRIVIM_GNN_MODELS_H_
