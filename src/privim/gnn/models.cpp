#include "privim/gnn/models.h"

#include <memory>
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

Variable GnnModel::AddParameter(int64_t rows, int64_t cols, Rng* rng) {
  Variable param(Tensor::GlorotUniform(rows, cols, rng),
                 /*requires_grad=*/true);
  params_.push_back(param);
  return param;
}

Variable GnnModel::AddZeroParameter(int64_t rows, int64_t cols) {
  Variable param(Tensor::Zeros(rows, cols), /*requires_grad=*/true);
  params_.push_back(param);
  return param;
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
  if (features.cols() != config_.input_dim) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.cols()) +
        " columns but the model expects input_dim = " +
        std::to_string(config_.input_dim));
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

namespace {

/// Appends the shared sigmoid output head p = sigmoid(H W_out + b_out).
class HeadedGnn : public GnnModel {
 protected:
  HeadedGnn(GnnConfig config, Rng* rng) : GnnModel(config) {
    head_weight_ = AddParameter(config.hidden_dim, 1, rng);
    head_bias_ = AddZeroParameter(1, 1);
  }

  Variable Head(const Variable& hidden) const {
    return Sigmoid(AddRowBroadcast(MatMul(hidden, head_weight_), head_bias_));
  }

  Variable head_weight_;
  Variable head_bias_;
};

class GcnModel : public HeadedGnn {
 public:
  GcnModel(GnnConfig config, Rng* rng) : HeadedGnn(config, rng) {
    int64_t in_dim = config.input_dim;
    for (int64_t l = 0; l < config.num_layers; ++l) {
      weights_.push_back(AddParameter(in_dim, config.hidden_dim, rng));
      biases_.push_back(AddZeroParameter(1, config.hidden_dim));
      in_dim = config.hidden_dim;
    }
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    Variable h = features;
    for (size_t l = 0; l < weights_.size(); ++l) {
      h = Relu(AddRowBroadcast(MatMul(SpMM(ctx.gcn_adj, h), weights_[l]),
                               biases_[l]));
    }
    return Head(h);
  }

 private:
  std::vector<Variable> weights_;
  std::vector<Variable> biases_;
};

class SageModel : public HeadedGnn {
 public:
  SageModel(GnnConfig config, Rng* rng) : HeadedGnn(config, rng) {
    int64_t in_dim = config.input_dim;
    for (int64_t l = 0; l < config.num_layers; ++l) {
      weights_.push_back(AddParameter(2 * in_dim, config.hidden_dim, rng));
      biases_.push_back(AddZeroParameter(1, config.hidden_dim));
      in_dim = config.hidden_dim;
    }
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    Variable h = features;
    for (size_t l = 0; l < weights_.size(); ++l) {
      const Variable mean = SpMM(ctx.mean_in_adj, h);
      h = Relu(AddRowBroadcast(MatMul(ConcatCols(h, mean), weights_[l]),
                               biases_[l]));
    }
    return Head(h);
  }

 private:
  std::vector<Variable> weights_;
  std::vector<Variable> biases_;
};

class GinModel : public HeadedGnn {
 public:
  GinModel(GnnConfig config, Rng* rng) : HeadedGnn(config, rng) {
    int64_t in_dim = config.input_dim;
    for (int64_t l = 0; l < config.num_layers; ++l) {
      mlp1_.push_back(AddParameter(in_dim, config.hidden_dim, rng));
      mlp1_bias_.push_back(AddZeroParameter(1, config.hidden_dim));
      mlp2_.push_back(AddParameter(config.hidden_dim, config.hidden_dim, rng));
      mlp2_bias_.push_back(AddZeroParameter(1, config.hidden_dim));
      // GIN's learnable (1 + omega) self-weight, initialized so the factor
      // starts at exactly 1.
      omega_.push_back(AddZeroParameter(1, 1));
      in_dim = config.hidden_dim;
    }
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    const Variable one(Tensor::Scalar(1.0f));
    Variable h = features;
    for (size_t l = 0; l < mlp1_.size(); ++l) {
      const Variable aggregate = SpMM(ctx.sum_in_adj, h);
      const Variable self = ScaleByScalar(h, Add(one, omega_[l]));
      const Variable mixed = Add(aggregate, self);
      const Variable hidden = Relu(
          AddRowBroadcast(MatMul(mixed, mlp1_[l]), mlp1_bias_[l]));
      h = Relu(AddRowBroadcast(MatMul(hidden, mlp2_[l]), mlp2_bias_[l]));
    }
    return Head(h);
  }

 private:
  std::vector<Variable> mlp1_, mlp1_bias_, mlp2_, mlp2_bias_, omega_;
};

/// Shared attention machinery for GAT (destination-normalized, Eq. 35) and
/// GRAT (source-normalized, Eq. 39).
class AttentionModel : public HeadedGnn {
 public:
  AttentionModel(GnnConfig config, bool normalize_by_source, Rng* rng)
      : HeadedGnn(config, rng), normalize_by_source_(normalize_by_source) {
    int64_t in_dim = config.input_dim;
    for (int64_t l = 0; l < config.num_layers; ++l) {
      weights_.push_back(AddParameter(in_dim, config.hidden_dim, rng));
      attn_src_.push_back(AddParameter(config.hidden_dim, 1, rng));
      attn_dst_.push_back(AddParameter(config.hidden_dim, 1, rng));
      biases_.push_back(AddZeroParameter(1, config.hidden_dim));
      in_dim = config.hidden_dim;
    }
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    // The tape's ops view their index lists, so the lists ride on the
    // output node and live as long as anything can run Backward() through
    // this forward.
    const auto lists =
        std::make_shared<const AttentionLists>(BuildAttentionLists(*ctx.graph));
    Variable h = features;
    for (size_t l = 0; l < weights_.size(); ++l) {
      const Variable transformed = MatMul(h, weights_[l]);  // n x d
      // GATv1 trick: a^T [Wh_u || Wh_v] = (Wh_u . a_src) + (Wh_v . a_dst).
      const Variable score_src = MatMul(transformed, attn_src_[l]);  // n x 1
      const Variable score_dst = MatMul(transformed, attn_dst_[l]);  // n x 1
      const Variable edge_scores =
          LeakyRelu(Add(GatherRows(score_src, lists->src),
                        GatherRows(score_dst, lists->dst)),
                    config_.leaky_slope);
      const std::vector<int32_t>& norm_segments =
          normalize_by_source_ ? lists->src : lists->dst;
      const Variable alpha =
          SegmentSoftmax(edge_scores, norm_segments, ctx.num_nodes);
      const Variable messages =
          MulColBroadcast(alpha, GatherRows(transformed, lists->src));
      const Variable aggregated =
          SegmentSum(messages, lists->dst, ctx.num_nodes);
      h = Relu(AddRowBroadcast(aggregated, biases_[l]));
    }
    Variable out = Head(h);
    out.node()->keepalive = lists;
    return out;
  }

 private:
  bool normalize_by_source_;
  std::vector<Variable> weights_, attn_src_, attn_dst_, biases_;
};

}  // namespace

Result<std::unique_ptr<GnnModel>> CreateGnnModel(const GnnConfig& config,
                                                 Rng* rng) {
  if (config.input_dim < 1 || config.hidden_dim < 1 || config.num_layers < 1) {
    return Status::InvalidArgument("GnnConfig dimensions must be positive");
  }
  std::unique_ptr<GnnModel> model;
  switch (config.kind) {
    case GnnKind::kGcn:
      model = std::make_unique<GcnModel>(config, rng);
      break;
    case GnnKind::kSage:
      model = std::make_unique<SageModel>(config, rng);
      break;
    case GnnKind::kGin:
      model = std::make_unique<GinModel>(config, rng);
      break;
    case GnnKind::kGat:
      model = std::make_unique<AttentionModel>(config,
                                               /*normalize_by_source=*/false,
                                               rng);
      break;
    case GnnKind::kGrat:
      model = std::make_unique<AttentionModel>(config,
                                               /*normalize_by_source=*/true,
                                               rng);
      break;
  }
  return model;
}

}  // namespace privim
