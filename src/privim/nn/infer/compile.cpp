#include "privim/nn/infer/compile.h"

#include <cassert>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace privim {
namespace infer {

/// Accumulates instructions and buffer slots while an emitter walks the
/// model's layers. Slot 0 is always the input feature matrix. Defined at
/// namespace scope (not in the anonymous namespace) so it matches the
/// `friend class ProgramBuilder` declaration in InferProgram.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(int64_t input_dim) {
    buffers_.push_back({RowDomain::kNodes, input_dim});
  }

  int NewBuffer(RowDomain domain, int64_t cols) {
    buffers_.push_back({domain, cols});
    return static_cast<int>(buffers_.size()) - 1;
  }

  int SpMM(AdjKind adj, int src, int64_t cols) {
    Instr in;
    in.op = OpCode::kSpMM;
    in.src0 = src;
    in.adj = adj;
    in.dst = NewBuffer(RowDomain::kNodes, cols);
    instrs_.push_back(in);
    return in.dst;
  }

  int Dense(int src, RowDomain domain, const Tensor* weight,
            const Tensor* bias, Activation act) {
    Instr in;
    in.op = OpCode::kDense;
    in.src0 = src;
    in.weight = weight;
    in.bias = bias;
    in.act = act;
    in.dst = NewBuffer(domain, weight->cols());
    instrs_.push_back(in);
    return in.dst;
  }

  int Concat(int a, int b, int64_t cols) {
    Instr in;
    in.op = OpCode::kConcat;
    in.src0 = a;
    in.src1 = b;
    in.dst = NewBuffer(RowDomain::kNodes, cols);
    instrs_.push_back(in);
    return in.dst;
  }

  int GinMix(int agg, int h, const Tensor* omega, int64_t cols) {
    Instr in;
    in.op = OpCode::kGinMix;
    in.src0 = agg;
    in.src1 = h;
    in.scalar_param = omega;
    in.dst = NewBuffer(RowDomain::kNodes, cols);
    instrs_.push_back(in);
    return in.dst;
  }

  int AttnScores(int score_src, int score_dst, float slope) {
    Instr in;
    in.op = OpCode::kAttnScores;
    in.src0 = score_src;
    in.src1 = score_dst;
    in.scalar = slope;
    in.dst = NewBuffer(RowDomain::kEdges, 1);
    instrs_.push_back(in);
    return in.dst;
  }

  int SegmentSoftmax(int scores, SegArray segments) {
    Instr in;
    in.op = OpCode::kSegmentSoftmax;
    in.src0 = scores;
    in.segments = segments;
    in.dst = NewBuffer(RowDomain::kEdges, 1);
    instrs_.push_back(in);
    return in.dst;
  }

  int EdgeAggregate(int alpha, int transformed, int64_t cols) {
    Instr in;
    in.op = OpCode::kEdgeAggregate;
    in.src0 = alpha;
    in.src1 = transformed;
    in.dst = NewBuffer(RowDomain::kNodes, cols);
    instrs_.push_back(in);
    return in.dst;
  }

  int BiasAct(int src, const Tensor* bias, Activation act, int64_t cols) {
    Instr in;
    in.op = OpCode::kBiasAct;
    in.src0 = src;
    in.bias = bias;
    in.act = act;
    in.dst = NewBuffer(RowDomain::kNodes, cols);
    instrs_.push_back(in);
    return in.dst;
  }

  /// Seals the program. `model` is the one whose parameters the
  /// instructions borrow; it fixes each parameter's offset in the flat
  /// gradient.
  InferProgram Finish(const GnnModel& model, int64_t input_dim,
                      int output_slot) {
    const std::vector<Variable>& params = model.parameters();
    const auto grad_offset = [&params](const Tensor* param) -> int64_t {
      if (param == nullptr) return -1;
      int64_t offset = 0;
      for (const Variable& p : params) {
        if (&p.value() == param) return offset;
        offset += p.value().size();
      }
      return -1;
    };
    InferProgram program;
    for (Instr& in : instrs_) {
      program.context_parts_ |= ContextPart(in);
      in.weight_grad = grad_offset(in.weight);
      in.bias_grad = grad_offset(in.bias);
      in.scalar_grad = grad_offset(in.scalar_param);
      // Param() only hands out the model's own parameter tensors.
      assert((in.weight == nullptr) == (in.weight_grad < 0));
      assert((in.bias == nullptr) == (in.bias_grad < 0));
      assert((in.scalar_param == nullptr) == (in.scalar_grad < 0));
      // Like the tape's requires_grad: a parameter or a reading of a slot
      // that has one.
      const auto reads_grad = [this](int slot) {
        return slot >= 0 && buffers_[static_cast<size_t>(slot)].requires_grad;
      };
      buffers_[static_cast<size_t>(in.dst)].requires_grad =
          in.weight != nullptr || in.bias != nullptr ||
          in.scalar_param != nullptr || reads_grad(in.src0) ||
          reads_grad(in.src1);
    }
    program.last_reader_.assign(buffers_.size(), -1);
    for (size_t step = 0; step < instrs_.size(); ++step) {
      for (const int src : {instrs_[step].src0, instrs_[step].src1}) {
        if (src >= 0) {
          program.last_reader_[static_cast<size_t>(src)] =
              static_cast<int>(step);
        }
      }
    }
    // Every slot but the output has a reader, so a releasing Execute()
    // leaves only the output behind.
    for (size_t s = 0; s < buffers_.size(); ++s) {
      assert((program.last_reader_[s] < 0) ==
             (static_cast<int>(s) == output_slot));
    }
    program.instrs_ = std::move(instrs_);
    program.buffers_ = std::move(buffers_);
    program.input_dim_ = input_dim;
    program.output_slot_ = output_slot;
    program.parameter_count_ = ParameterCount(params);
    return program;
  }

 private:
  /// The GraphContext operator `in` reads, if any.
  static uint32_t ContextPart(const Instr& in) {
    switch (in.op) {
      case OpCode::kSpMM:
        switch (in.adj) {
          case AdjKind::kGcn:
            return GraphContext::kGcnAdj;
          case AdjKind::kMeanIn:
            return GraphContext::kMeanInAdj;
          case AdjKind::kSumIn:
            return GraphContext::kSumInAdj;
        }
        return 0;
      case OpCode::kAttnScores:
      case OpCode::kSegmentSoftmax:
      case OpCode::kEdgeAggregate:
        return GraphContext::kAttentionLists;
      case OpCode::kDense:
      case OpCode::kConcat:
      case OpCode::kGinMix:
      case OpCode::kBiasAct:
        return 0;
    }
    return 0;
  }

  std::vector<Instr> instrs_;
  std::vector<BufferSpec> buffers_;
};

namespace {

Status LayoutMismatch(const GnnModel& model, const std::string& detail) {
  return Status::Unimplemented(
      std::string("cannot compile model for fused inference: ") + detail +
      " (kind " + GnnKindToString(model.config().kind) + ", " +
      std::to_string(model.parameters().size()) + " parameters)");
}

/// The parameter tensor at `index`, checked against the expected shape.
Result<const Tensor*> Param(const GnnModel& model, size_t index,
                            int64_t rows, int64_t cols) {
  const std::vector<Variable>& params = model.parameters();
  if (index >= params.size()) {
    return LayoutMismatch(model, "parameter " + std::to_string(index) +
                                     " is missing");
  }
  const Tensor& value = params[index].value();
  if (value.rows() != rows || value.cols() != cols) {
    return LayoutMismatch(
        model, "parameter " + std::to_string(index) + " is " +
                   std::to_string(value.rows()) + "x" +
                   std::to_string(value.cols()) + ", expected " +
                   std::to_string(rows) + "x" + std::to_string(cols));
  }
  return &value;
}

}  // namespace

Result<InferProgram> CompileForInference(const GnnModel& model) {
  const GnnConfig& cfg = model.config();
  if (cfg.input_dim < 1 || cfg.hidden_dim < 1 || cfg.num_layers < 1) {
    return LayoutMismatch(model, "non-positive config dimensions");
  }
  const int64_t in_dim = cfg.input_dim;
  const int64_t hid = cfg.hidden_dim;
  const size_t layers = static_cast<size_t>(cfg.num_layers);

  // Every built-in architecture shares the HeadedGnn prefix: parameter 0 is
  // the (hidden x 1) head weight, parameter 1 the (1 x 1) head bias, and
  // per-layer parameters follow in construction order (models.cpp).
  Result<const Tensor*> head_w = Param(model, 0, hid, 1);
  if (!head_w.ok()) return head_w.status();
  Result<const Tensor*> head_b = Param(model, 1, 1, 1);
  if (!head_b.ok()) return head_b.status();

  const size_t per_layer = [&]() -> size_t {
    switch (cfg.kind) {
      case GnnKind::kGcn:
      case GnnKind::kSage:
        return 2;  // weight, bias
      case GnnKind::kGat:
      case GnnKind::kGrat:
        return 4;  // weight, attn_src, attn_dst, bias
      case GnnKind::kGin:
        return 5;  // mlp1, mlp1_bias, mlp2, mlp2_bias, omega
    }
    return 0;
  }();
  if (per_layer == 0) {
    return LayoutMismatch(model, "unknown architecture kind");
  }
  const size_t expected = 2 + per_layer * layers;
  if (model.parameters().size() != expected) {
    return LayoutMismatch(model, "expected " + std::to_string(expected) +
                                     " parameters");
  }

  ProgramBuilder accum(in_dim);
  int h = 0;  // slot of the current hidden state
  int64_t layer_in = in_dim;

  for (size_t l = 0; l < layers; ++l) {
    const size_t base = 2 + per_layer * l;
    switch (cfg.kind) {
      case GnnKind::kGcn: {
        Result<const Tensor*> w = Param(model, base, layer_in, hid);
        if (!w.ok()) return w.status();
        Result<const Tensor*> b = Param(model, base + 1, 1, hid);
        if (!b.ok()) return b.status();
        const int agg = accum.SpMM(AdjKind::kGcn, h, layer_in);
        h = accum.Dense(agg, RowDomain::kNodes, w.value(), b.value(),
                        Activation::kRelu);
        break;
      }

      case GnnKind::kSage: {
        Result<const Tensor*> w = Param(model, base, 2 * layer_in, hid);
        if (!w.ok()) return w.status();
        Result<const Tensor*> b = Param(model, base + 1, 1, hid);
        if (!b.ok()) return b.status();
        const int mean = accum.SpMM(AdjKind::kMeanIn, h, layer_in);
        const int cat = accum.Concat(h, mean, 2 * layer_in);
        h = accum.Dense(cat, RowDomain::kNodes, w.value(), b.value(),
                        Activation::kRelu);
        break;
      }

      case GnnKind::kGin: {
        Result<const Tensor*> mlp1 = Param(model, base, layer_in, hid);
        if (!mlp1.ok()) return mlp1.status();
        Result<const Tensor*> mlp1_b = Param(model, base + 1, 1, hid);
        if (!mlp1_b.ok()) return mlp1_b.status();
        Result<const Tensor*> mlp2 = Param(model, base + 2, hid, hid);
        if (!mlp2.ok()) return mlp2.status();
        Result<const Tensor*> mlp2_b = Param(model, base + 3, 1, hid);
        if (!mlp2_b.ok()) return mlp2_b.status();
        Result<const Tensor*> omega = Param(model, base + 4, 1, 1);
        if (!omega.ok()) return omega.status();
        const int agg = accum.SpMM(AdjKind::kSumIn, h, layer_in);
        const int mixed = accum.GinMix(agg, h, omega.value(), layer_in);
        const int hidden = accum.Dense(mixed, RowDomain::kNodes,
                                       mlp1.value(), mlp1_b.value(),
                                       Activation::kRelu);
        h = accum.Dense(hidden, RowDomain::kNodes, mlp2.value(),
                        mlp2_b.value(), Activation::kRelu);
        break;
      }

      case GnnKind::kGat:
      case GnnKind::kGrat: {
        Result<const Tensor*> w = Param(model, base, layer_in, hid);
        if (!w.ok()) return w.status();
        Result<const Tensor*> a_src = Param(model, base + 1, hid, 1);
        if (!a_src.ok()) return a_src.status();
        Result<const Tensor*> a_dst = Param(model, base + 2, hid, 1);
        if (!a_dst.ok()) return a_dst.status();
        Result<const Tensor*> b = Param(model, base + 3, 1, hid);
        if (!b.ok()) return b.status();
        const int t = accum.Dense(h, RowDomain::kNodes, w.value(), nullptr,
                                  Activation::kNone);
        const int s_src = accum.Dense(t, RowDomain::kNodes, a_src.value(),
                                      nullptr, Activation::kNone);
        const int s_dst = accum.Dense(t, RowDomain::kNodes, a_dst.value(),
                                      nullptr, Activation::kNone);
        const int scores = accum.AttnScores(s_src, s_dst, cfg.leaky_slope);
        // GRAT normalizes over a source's outgoing attention edges (Eq. 39),
        // GAT over a destination's incoming ones (Eq. 35).
        const int alpha = accum.SegmentSoftmax(
            scores, cfg.kind == GnnKind::kGrat ? SegArray::kAttentionSrc
                                               : SegArray::kAttentionDst);
        const int agg = accum.EdgeAggregate(alpha, t, hid);
        h = accum.BiasAct(agg, b.value(), Activation::kRelu, hid);
        break;
      }
    }
    layer_in = hid;
  }

  const int out =
      accum.Dense(h, RowDomain::kNodes, head_w.value(), head_b.value(),
                  Activation::kSigmoid);
  return accum.Finish(model, in_dim, out);
}

}  // namespace infer
}  // namespace privim
