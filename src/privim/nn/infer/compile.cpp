#include "privim/nn/infer/compile.h"

#include <cassert>
#include <initializer_list>
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

  int AttnSoftmax(int score_src, int score_dst, float slope,
                  Segments segments) {
    Instr in;
    in.op = OpCode::kAttnSoftmax;
    in.src0 = score_src;
    in.src1 = score_dst;
    in.scalar = slope;
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
      program.reads_graph_ |= in.op == OpCode::kAttnSoftmax ||
                              in.op == OpCode::kEdgeAggregate;
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
  /// The GraphContext operator `in` reads, if any. Attention reads the
  /// context's graph, not an operator.
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
      case OpCode::kAttnSoftmax:
      case OpCode::kEdgeAggregate:
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

InferProgram CompileForInference(const GnnModel& model) {
  const GnnConfig& cfg = model.config();
  const auto param = [&model](int64_t layer, ParamRole role) {
    return &model.param(layer, role).value();
  };
  ProgramBuilder accum(cfg.input_dim);
  int h = 0;  // slot of the current hidden state
  int64_t layer_in = cfg.input_dim;

  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    const Tensor* w = param(l, ParamRole::kWeight);
    const Tensor* b = param(l, ParamRole::kBias);
    switch (cfg.kind) {
      case GnnKind::kGcn: {
        const int agg = accum.SpMM(AdjKind::kGcn, h, layer_in);
        h = accum.Dense(agg, RowDomain::kNodes, w, b, Activation::kRelu);
        break;
      }

      case GnnKind::kSage: {
        const int mean = accum.SpMM(AdjKind::kMeanIn, h, layer_in);
        const int cat = accum.Concat(h, mean, 2 * layer_in);
        h = accum.Dense(cat, RowDomain::kNodes, w, b, Activation::kRelu);
        break;
      }

      case GnnKind::kGin: {
        const int agg = accum.SpMM(AdjKind::kSumIn, h, layer_in);
        const int mixed =
            accum.GinMix(agg, h, param(l, ParamRole::kOmega), layer_in);
        const int hidden =
            accum.Dense(mixed, RowDomain::kNodes, w, b, Activation::kRelu);
        h = accum.Dense(hidden, RowDomain::kNodes,
                        param(l, ParamRole::kMlp2Weight),
                        param(l, ParamRole::kMlp2Bias), Activation::kRelu);
        break;
      }

      case GnnKind::kGat:
      case GnnKind::kGrat: {
        const int t = accum.Dense(h, RowDomain::kNodes, w, nullptr,
                                  Activation::kNone);
        const int s_src =
            accum.Dense(t, RowDomain::kNodes, param(l, ParamRole::kAttnSrc),
                        nullptr, Activation::kNone);
        const int s_dst =
            accum.Dense(t, RowDomain::kNodes, param(l, ParamRole::kAttnDst),
                        nullptr, Activation::kNone);
        // GRAT normalizes over a source's outgoing attention edges (Eq. 39),
        // GAT over a destination's incoming ones (Eq. 35).
        const int alpha = accum.AttnSoftmax(
            s_src, s_dst, cfg.leaky_slope,
            cfg.kind == GnnKind::kGrat ? Segments::kBySource
                                       : Segments::kByDestination);
        const int agg = accum.EdgeAggregate(alpha, t, cfg.hidden_dim);
        h = accum.BiasAct(agg, b, Activation::kRelu, cfg.hidden_dim);
        break;
      }
    }
    layer_in = cfg.hidden_dim;
  }

  const int out = accum.Dense(
      h, RowDomain::kNodes, param(ParamLayout::kHead, ParamRole::kWeight),
      param(ParamLayout::kHead, ParamRole::kBias), Activation::kSigmoid);
  return accum.Finish(model, cfg.input_dim, out);
}

}  // namespace infer
}  // namespace privim
