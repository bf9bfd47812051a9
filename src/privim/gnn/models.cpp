#include "privim/gnn/models.h"

#include <memory>
#include <span>
#include <utility>

#include "privim/nn/ops.h"

namespace privim {

Result<GnnKind> GnnKindFromString(const std::string& name) {
  if (name == "gcn") return GnnKind::kGcn;
  if (name == "sage" || name == "graphsage") return GnnKind::kSage;
  if (name == "gat") return GnnKind::kGat;
  if (name == "grat") return GnnKind::kGrat;
  if (name == "gin") return GnnKind::kGin;
  return Status::InvalidArgument("unknown GNN kind: " + name);
}

const char* GnnKindToString(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn:
      return "gcn";
    case GnnKind::kSage:
      return "sage";
    case GnnKind::kGat:
      return "gat";
    case GnnKind::kGrat:
      return "grat";
    case GnnKind::kGin:
      return "gin";
  }
  return "?";
}

namespace {

/// A layout dimension, bound to a layer's input width and the hidden width.
enum class Dim { kOne, kIn, kTwiceIn, kHidden };

struct Entry {
  ParamRole role;
  Dim rows;
  Dim cols;
  bool glorot;
};

// The table models.h documents.
constexpr Entry kHeadEntries[] = {
    {ParamRole::kWeight, Dim::kHidden, Dim::kOne, true},
    {ParamRole::kBias, Dim::kOne, Dim::kOne, false},
};
constexpr Entry kGcnLayer[] = {
    {ParamRole::kWeight, Dim::kIn, Dim::kHidden, true},
    {ParamRole::kBias, Dim::kOne, Dim::kHidden, false},
};
constexpr Entry kSageLayer[] = {
    {ParamRole::kWeight, Dim::kTwiceIn, Dim::kHidden, true},
    {ParamRole::kBias, Dim::kOne, Dim::kHidden, false},
};
constexpr Entry kAttentionLayer[] = {
    {ParamRole::kWeight, Dim::kIn, Dim::kHidden, true},
    {ParamRole::kAttnSrc, Dim::kHidden, Dim::kOne, true},
    {ParamRole::kAttnDst, Dim::kHidden, Dim::kOne, true},
    {ParamRole::kBias, Dim::kOne, Dim::kHidden, false},
};
constexpr Entry kGinLayer[] = {
    {ParamRole::kWeight, Dim::kIn, Dim::kHidden, true},
    {ParamRole::kBias, Dim::kOne, Dim::kHidden, false},
    {ParamRole::kMlp2Weight, Dim::kHidden, Dim::kHidden, true},
    {ParamRole::kMlp2Bias, Dim::kOne, Dim::kHidden, false},
    {ParamRole::kOmega, Dim::kOne, Dim::kOne, false},
};

constexpr int64_t kHeadCount = std::size(kHeadEntries);

/// One layer's entries; empty for a value outside the enum.
std::span<const Entry> LayerEntries(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn:
      return kGcnLayer;
    case GnnKind::kSage:
      return kSageLayer;
    case GnnKind::kGat:
    case GnnKind::kGrat:
      return kAttentionLayer;
    case GnnKind::kGin:
      return kGinLayer;
  }
  return {};
}

/// `dim` for a layer whose input width is `in`; false when it overflows.
bool Bind(Dim dim, int64_t in, int64_t hidden, int64_t* size) {
  switch (dim) {
    case Dim::kOne:
      *size = 1;
      return true;
    case Dim::kIn:
      *size = in;
      return true;
    case Dim::kTwiceIn:
      return !__builtin_mul_overflow(in, 2, size);
    case Dim::kHidden:
      *size = hidden;
      return true;
  }
  return false;
}

/// The element count of `entries` for a layer whose input width is `in`;
/// false when a shape or the sum overflows int64_t.
bool ElementCount(std::span<const Entry> entries, int64_t in, int64_t hidden,
                  int64_t* total) {
  *total = 0;
  for (const Entry& e : entries) {
    int64_t rows = 0, cols = 0, size = 0;
    if (!Bind(e.rows, in, hidden, &rows) || !Bind(e.cols, in, hidden, &cols) ||
        __builtin_mul_overflow(rows, cols, &size) ||
        __builtin_add_overflow(*total, size, total)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<ParamLayout> ParamLayout::Of(const GnnConfig& config) {
  if (config.input_dim < 1 || config.hidden_dim < 1 || config.num_layers < 1) {
    return Status::InvalidArgument("GnnConfig dimensions must be positive");
  }
  const std::span<const Entry> layer = LayerEntries(config.kind);
  if (layer.empty()) return Status::InvalidArgument("unknown GNN kind");
  // Layer 0 reads input_dim wide rows, every later layer hidden_dim wide.
  int64_t count = 0;
  int64_t head = 0, first = 0, later = 0, rest = 0, total = 0;
  const bool fits =
      !__builtin_mul_overflow(static_cast<int64_t>(layer.size()),
                              config.num_layers, &count) &&
      !__builtin_add_overflow(count, kHeadCount, &count) &&
      ElementCount(kHeadEntries, config.hidden_dim, config.hidden_dim,
                   &head) &&
      ElementCount(layer, config.input_dim, config.hidden_dim, &first) &&
      (config.num_layers == 1 ||
       ElementCount(layer, config.hidden_dim, config.hidden_dim, &later)) &&
      !__builtin_mul_overflow(later, config.num_layers - 1, &rest) &&
      !__builtin_add_overflow(head, first, &total) &&
      !__builtin_add_overflow(total, rest, &total);
  if (!fits) {
    return Status::InvalidArgument(
        "GnnConfig dimensions overflow the parameter count");
  }
  return ParamLayout(config);
}

int64_t ParamLayout::size() const {
  return kHeadCount + static_cast<int64_t>(LayerEntries(config_.kind).size()) *
                          config_.num_layers;
}

ParamSpec ParamLayout::at(int64_t index) const {
  const std::span<const Entry> layer = LayerEntries(config_.kind);
  const int64_t per_layer = static_cast<int64_t>(layer.size());
  const int64_t offset = index - kHeadCount;  // negative for the head
  const Entry& entry = offset < 0
                           ? kHeadEntries[index]
                           : layer[static_cast<size_t>(offset % per_layer)];
  // Layer 0 reads input_dim wide rows, the head and every later layer
  // hidden_dim wide ones.
  const int64_t in = offset >= 0 && offset < per_layer ? config_.input_dim
                                                       : config_.hidden_dim;
  // Of() proved that every shape fits.
  ParamSpec spec;
  Bind(entry.rows, in, config_.hidden_dim, &spec.rows);
  Bind(entry.cols, in, config_.hidden_dim, &spec.cols);
  spec.glorot = entry.glorot;
  return spec;
}

int64_t ParamLayout::IndexOf(int64_t layer, ParamRole role) const {
  const std::span<const Entry> entries =
      layer == kHead ? std::span<const Entry>(kHeadEntries)
                     : LayerEntries(config_.kind);
  int64_t position = 0;
  while (entries[static_cast<size_t>(position)].role != role) ++position;
  if (layer == kHead) return position;
  return kHeadCount + layer * static_cast<int64_t>(entries.size()) + position;
}

Result<std::unique_ptr<GnnModel>> CreateGnnModel(const GnnConfig& config,
                                                 Rng* rng) {
  Result<ParamLayout> layout = ParamLayout::Of(config);
  if (!layout.ok()) return layout.status();
  std::vector<Variable> params;
  params.reserve(static_cast<size_t>(layout->size()));
  for (int64_t i = 0; i < layout->size(); ++i) {
    const ParamSpec spec = layout->at(i);
    params.emplace_back(spec.glorot
                            ? Tensor::GlorotUniform(spec.rows, spec.cols, rng)
                            : Tensor::Zeros(spec.rows, spec.cols),
                        /*requires_grad=*/true);
  }
  return std::unique_ptr<GnnModel>(
      new GnnModel(layout.value(), std::move(params)));
}

Variable GnnModel::Forward(const GraphContext& ctx,
                           const Variable& features) const {
  switch (config().kind) {
    case GnnKind::kGcn:
      return GcnForward(ctx, features);
    case GnnKind::kSage:
      return SageForward(ctx, features);
    case GnnKind::kGin:
      return GinForward(ctx, features);
    case GnnKind::kGat:
    case GnnKind::kGrat:
      return AttentionForward(ctx, features);
  }
  return Variable();
}

Result<Variable> GnnModel::Run(const GraphContext& ctx,
                               const Tensor& features,
                               nn::MemoryPools* pools) const {
  if (features.rows() != ctx.num_nodes) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.rows()) +
        " rows but the graph has " + std::to_string(ctx.num_nodes) +
        " nodes");
  }
  if (features.cols() != config().input_dim) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.cols()) +
        " columns but the model expects input_dim = " +
        std::to_string(config().input_dim));
  }
  nn::ArenaScope scope(pools);
  return Forward(ctx, Variable(features));
}

Status GnnModel::CopyParametersFrom(const GnnModel& other) {
  if (other.params_.size() != params_.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].value().SameShape(other.params_[i].value())) {
      return Status::InvalidArgument("parameter shape mismatch at index " +
                                     std::to_string(i));
    }
    params_[i].mutable_value() = other.params_[i].value();
  }
  return Status::OK();
}

Variable GnnModel::Head(const Variable& hidden) const {
  return Sigmoid(
      AddRowBroadcast(MatMul(hidden, param(ParamLayout::kHead,
                                           ParamRole::kWeight)),
                      param(ParamLayout::kHead, ParamRole::kBias)));
}

Variable GnnModel::GcnForward(const GraphContext& ctx,
                              const Variable& features) const {
  Variable h = features;
  for (int64_t l = 0; l < config().num_layers; ++l) {
    h = Relu(AddRowBroadcast(
        MatMul(SpMM(ctx.gcn_adj, h), param(l, ParamRole::kWeight)),
        param(l, ParamRole::kBias)));
  }
  return Head(h);
}

Variable GnnModel::SageForward(const GraphContext& ctx,
                               const Variable& features) const {
  Variable h = features;
  for (int64_t l = 0; l < config().num_layers; ++l) {
    const Variable mean = SpMM(ctx.mean_in_adj, h);
    h = Relu(AddRowBroadcast(
        MatMul(ConcatCols(h, mean), param(l, ParamRole::kWeight)),
        param(l, ParamRole::kBias)));
  }
  return Head(h);
}

Variable GnnModel::GinForward(const GraphContext& ctx,
                              const Variable& features) const {
  const Variable one(Tensor::Scalar(1.0f));
  Variable h = features;
  for (int64_t l = 0; l < config().num_layers; ++l) {
    const Variable aggregate = SpMM(ctx.sum_in_adj, h);
    const Variable self =
        ScaleByScalar(h, Add(one, param(l, ParamRole::kOmega)));
    const Variable mixed = Add(aggregate, self);
    const Variable hidden = Relu(AddRowBroadcast(
        MatMul(mixed, param(l, ParamRole::kWeight)),
        param(l, ParamRole::kBias)));
    h = Relu(AddRowBroadcast(MatMul(hidden, param(l, ParamRole::kMlp2Weight)),
                             param(l, ParamRole::kMlp2Bias)));
  }
  return Head(h);
}

/// GAT (destination-normalized, Eq. 35) and GRAT (source-normalized,
/// Eq. 39).
Variable GnnModel::AttentionForward(const GraphContext& ctx,
                                    const Variable& features) const {
  const bool normalize_by_source = config().kind == GnnKind::kGrat;
  // The tape's ops view their index lists, so the lists ride on the
  // output node and live as long as anything can run Backward() through
  // this forward.
  const auto lists =
      std::make_shared<const AttentionLists>(BuildAttentionLists(*ctx.graph));
  Variable h = features;
  for (int64_t l = 0; l < config().num_layers; ++l) {
    const Variable transformed =
        MatMul(h, param(l, ParamRole::kWeight));  // n x d
    // GATv1 trick: a^T [Wh_u || Wh_v] = (Wh_u . a_src) + (Wh_v . a_dst).
    const Variable score_src =
        MatMul(transformed, param(l, ParamRole::kAttnSrc));  // n x 1
    const Variable score_dst =
        MatMul(transformed, param(l, ParamRole::kAttnDst));  // n x 1
    const Variable edge_scores =
        LeakyRelu(Add(GatherRows(score_src, lists->src),
                      GatherRows(score_dst, lists->dst)),
                  config().leaky_slope);
    const std::vector<int32_t>& norm_segments =
        normalize_by_source ? lists->src : lists->dst;
    const Variable alpha =
        SegmentSoftmax(edge_scores, norm_segments, ctx.num_nodes);
    const Variable messages =
        MulColBroadcast(alpha, GatherRows(transformed, lists->src));
    const Variable aggregated =
        SegmentSum(messages, lists->dst, ctx.num_nodes);
    h = Relu(AddRowBroadcast(aggregated, param(l, ParamRole::kBias)));
  }
  Variable out = Head(h);
  out.node()->keepalive = lists;
  return out;
}

}  // namespace privim
