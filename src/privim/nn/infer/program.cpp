#include "privim/nn/infer/program.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <initializer_list>
#include <string>
#include <utility>

#include "privim/nn/activations.h"
#include "privim/nn/ops.h"

namespace privim {
namespace infer {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kSpMM:
      return "spmm";
    case OpCode::kDense:
      return "dense";
    case OpCode::kConcat:
      return "concat";
    case OpCode::kGinMix:
      return "gin_mix";
    case OpCode::kAttnScores:
      return "attn_scores";
    case OpCode::kSegmentSoftmax:
      return "segment_softmax";
    case OpCode::kEdgeAggregate:
      return "edge_aggregate";
    case OpCode::kBiasAct:
      return "bias_act";
  }
  return "?";
}

namespace {

const SparseMatrix* AdjFor(const GraphContext& ctx, AdjKind kind) {
  switch (kind) {
    case AdjKind::kGcn:
      return ctx.gcn_adj.get();
    case AdjKind::kMeanIn:
      return ctx.mean_in_adj.get();
    case AdjKind::kSumIn:
      return ctx.sum_in_adj.get();
  }
  return nullptr;
}

// act(x + b) over every row, for one activation. The activation is a
// template argument so the row loops stay branch-free and vectorize (a
// per-element switch compiles to a mispredicted branch per ReLU sign).
template <typename Act>
void BiasActRows(const float* PRIVIM_RESTRICT bias, int64_t rows,
                 int64_t cols, float* PRIVIM_RESTRICT data, Act act) {
  for (int64_t i = 0; i < rows; ++i) {
    float* PRIVIM_RESTRICT row = data + i * cols;
    if (bias != nullptr) {
      for (int64_t j = 0; j < cols; ++j) row[j] = act(row[j] + bias[j]);
    } else {
      for (int64_t j = 0; j < cols; ++j) row[j] = act(row[j]);
    }
  }
}

// The fused bias+activation sweep. Applying act(x + b) in one pass performs
// the same two float operations, in the same order, as the tape's separate
// AddRowBroadcast and activation ops; -ffp-contract=off forbids the
// compiler from contracting them, so the result is bit-identical.
void BiasActSweep(const float* bias, Activation act, int64_t rows,
                  int64_t cols, float* data) {
  switch (act) {
    case Activation::kNone:
      BiasActRows(bias, rows, cols, data, [](float v) { return v; });
      break;
    case Activation::kRelu:
      BiasActRows(bias, rows, cols, data,
                  [](float v) { return nn::ReluValue(v); });
      break;
    case Activation::kSigmoid:
      BiasActRows(bias, rows, cols, data,
                  [](float v) { return nn::SigmoidValue(v); });
      break;
  }
}

// The attention aggregation out[adst[e]] += alpha[e] * t[asrc[e]], edges
// ascending. The tape rounds each scaled message to float (MulColBroadcast
// of the gathered row) and then adds the messages per destination in edge
// order (SegmentSum); this sweep performs that multiply and that add in
// that order, and -ffp-contract=off keeps them two roundings, so the sums
// are bit-identical without the (edges x d) message buffer.
PRIVIM_VEC_CLONES
void EdgeAggregateKernel(int64_t num_edges, int64_t d,
                         const int32_t* PRIVIM_RESTRICT asrc,
                         const int32_t* PRIVIM_RESTRICT adst,
                         const float* PRIVIM_RESTRICT alpha,
                         const float* PRIVIM_RESTRICT t,
                         float* PRIVIM_RESTRICT out) {
  for (int64_t e = 0; e < num_edges; ++e) {
    const float s = alpha[e];
    const float* PRIVIM_RESTRICT trow = t + static_cast<int64_t>(asrc[e]) * d;
    float* PRIVIM_RESTRICT orow = out + static_cast<int64_t>(adst[e]) * d;
    for (int64_t j = 0; j < d; ++j) orow[j] += s * trow[j];
  }
}

// The attention aggregation's pullback for the output gradient g. The tape
// copies g's destination rows into the message gradient (SegmentSum), then
// MulColBroadcast sums each message row's product with its gathered source
// row — float products widened into a double — into dalpha[e], and scales
// the row by alpha[e] into the gathered rows' gradient, which GatherRows
// scatter-adds onto the source nodes, edges ascending. This performs those
// operations without the (edges x d) buffers: first every dot product
// (four edges at a time, as four independent double chains), then the
// scatter in edge order. `dt` must be zero on entry.
PRIVIM_VEC_CLONES
void EdgeAggregateGradKernel(int64_t num_edges, int64_t d,
                             const int32_t* PRIVIM_RESTRICT asrc,
                             const int32_t* PRIVIM_RESTRICT adst,
                             const float* PRIVIM_RESTRICT alpha,
                             const float* PRIVIM_RESTRICT t,
                             const float* PRIVIM_RESTRICT g,
                             float* PRIVIM_RESTRICT dalpha,
                             float* PRIVIM_RESTRICT dt) {
  constexpr int kChains = 4;
  int64_t e = 0;
  for (; e + kChains <= num_edges; e += kChains) {
    const float* grow[kChains];
    const float* trow[kChains];
    double dot[kChains];
    for (int r = 0; r < kChains; ++r) {
      grow[r] = g + static_cast<int64_t>(adst[e + r]) * d;
      trow[r] = t + static_cast<int64_t>(asrc[e + r]) * d;
      dot[r] = 0.0;
    }
    for (int64_t j = 0; j < d; ++j) {
      for (int r = 0; r < kChains; ++r) dot[r] += grow[r][j] * trow[r][j];
    }
    for (int r = 0; r < kChains; ++r) {
      dalpha[e + r] = static_cast<float>(dot[r]);
    }
  }
  for (; e < num_edges; ++e) {
    const float* PRIVIM_RESTRICT grow = g + static_cast<int64_t>(adst[e]) * d;
    const float* PRIVIM_RESTRICT trow = t + static_cast<int64_t>(asrc[e]) * d;
    double dot = 0.0;
    for (int64_t j = 0; j < d; ++j) dot += grow[j] * trow[j];
    dalpha[e] = static_cast<float>(dot);
  }
  for (e = 0; e < num_edges; ++e) {
    const float s = alpha[e];
    const float* PRIVIM_RESTRICT grow = g + static_cast<int64_t>(adst[e]) * d;
    float* PRIVIM_RESTRICT drow = dt + static_cast<int64_t>(asrc[e]) * d;
    for (int64_t j = 0; j < d; ++j) drow[j] += s * grow[j];
  }
}

// The pullback of act(x + bias) over the output gradient `g`, in place,
// given the output `y`: g becomes the gradient of x. The tape's activation
// op writes g * act'(x) — ReLU's x > 0 is y > 0 — and its AddRowBroadcast
// sums those rows into the bias gradient (from +0, rows ascending) and
// hands them on by const reference, which stores 0 + g. With no bias the
// activation's product is handed on as is.
template <typename Grad>
void BiasActGradRows(const float* PRIVIM_RESTRICT y,
                     float* PRIVIM_RESTRICT bias_grad, int64_t rows,
                     int64_t cols, float* PRIVIM_RESTRICT g, Grad grad) {
  if (bias_grad != nullptr) std::fill(bias_grad, bias_grad + cols, 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    const float* PRIVIM_RESTRICT yrow = y + i * cols;
    float* PRIVIM_RESTRICT grow = g + i * cols;
    if (bias_grad != nullptr) {
      for (int64_t j = 0; j < cols; ++j) {
        const float v = grad(grow[j], yrow[j]);
        bias_grad[j] += v;
        grow[j] = 0.0f + v;
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) grow[j] = grad(grow[j], yrow[j]);
    }
  }
}

void BiasActGrad(Activation act, const float* y, float* bias_grad,
                 int64_t rows, int64_t cols, float* g) {
  switch (act) {
    case Activation::kNone:
      BiasActGradRows(y, bias_grad, rows, cols, g,
                      [](float dy, float) { return dy; });
      break;
    case Activation::kRelu:
      // The tape's factor, x > 0 ? 1.0f : 0.0f, built from bits: as a
      // conditional the compiler would skip the multiply by 1 and branch
      // on every sign.
      BiasActGradRows(y, bias_grad, rows, cols, g, [](float dy, float yv) {
        const uint32_t one_bits = std::bit_cast<uint32_t>(1.0f);
        const uint32_t keep = 0u - static_cast<uint32_t>(yv > 0.0f);
        return dy * std::bit_cast<float>(one_bits & keep);
      });
      break;
    case Activation::kSigmoid:
      BiasActGradRows(y, bias_grad, rows, cols, g, [](float dy, float yv) {
        return dy * (yv * (1.0f - yv));
      });
      break;
  }
}

// Adds `delta` to the gradient of `slot`: the first contribution is
// adopted, later ones added in place — the tape's AccumulateGrad(Tensor&&).
void Contribute(int slot, Tensor&& delta, Scratch* scratch) {
  const size_t s = static_cast<size_t>(slot);
  if (!scratch->has_grad[s]) {
    scratch->grads[s] = std::move(delta);
    scratch->has_grad[s] = 1;
  } else {
    scratch->grads[s].AddInPlace(delta);
  }
}

}  // namespace

Status InferProgram::Execute(const GraphContext& ctx, const Tensor& features,
                             Scratch* scratch, Tensor* out,
                             const StepObserver& observer,
                             SlotPolicy policy) const {
  if (features.rows() != ctx.num_nodes) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.rows()) +
        " rows but the graph has " + std::to_string(ctx.num_nodes) +
        " nodes");
  }
  if (features.cols() != input_dim_) {
    return Status::InvalidArgument(
        "feature matrix has " + std::to_string(features.cols()) +
        " columns but the compiled model expects input_dim = " +
        std::to_string(input_dim_));
  }
  if ((ctx.parts & context_parts_) != context_parts_) {
    return Status::InvalidArgument(
        "graph context lacks operators the compiled program reads");
  }
  const int64_t n = ctx.num_nodes;
  const int64_t num_edges = static_cast<int64_t>(ctx.attention_src.size());

  // Route every slot (re)allocation through the scratch's arena: slot
  // assignment recycles the old buffer and acquires a same-class one, so a
  // warm Scratch executes without touching the heap. A released slot
  // recycles the same way, and a later slot of its class takes the buffer.
  nn::ArenaScope scope(&scratch->pools);
  std::vector<Tensor>& slots = scratch->slots;
  slots.resize(buffers_.size());

  const auto rows_for = [&](const BufferSpec& spec) {
    return spec.domain == RowDomain::kNodes ? n : num_edges;
  };

  slots[0] = features;  // the tape copies features into a leaf node too

  for (size_t step = 0; step < instrs_.size(); ++step) {
    const Instr& in = instrs_[step];
    const BufferSpec& spec = buffers_[static_cast<size_t>(in.dst)];
    Tensor& dst = slots[static_cast<size_t>(in.dst)];
    dst = Tensor::Uninitialized(rows_for(spec), spec.cols);

    switch (in.op) {
      case OpCode::kSpMM: {
        const SparseMatrix* adj = AdjFor(ctx, in.adj);
        SpMMValuesInto(*adj, slots[static_cast<size_t>(in.src0)], &dst);
        break;
      }

      case OpCode::kDense: {
        const Tensor& src = slots[static_cast<size_t>(in.src0)];
        MatMulValuesInto(src, *in.weight, &dst);
        if (in.bias != nullptr || in.act != Activation::kNone) {
          BiasActSweep(in.bias != nullptr ? in.bias->data() : nullptr,
                       in.act, dst.rows(), dst.cols(), dst.data());
        }
        break;
      }

      case OpCode::kConcat: {
        const Tensor& a = slots[static_cast<size_t>(in.src0)];
        const Tensor& b = slots[static_cast<size_t>(in.src1)];
        const int64_t d1 = a.cols(), d2 = b.cols();
        for (int64_t i = 0; i < a.rows(); ++i) {
          float* row = dst.data() + i * (d1 + d2);
          const float* arow = a.data() + i * d1;
          const float* brow = b.data() + i * d2;
          std::copy(arow, arow + d1, row);
          std::copy(brow, brow + d2, row + d1);
        }
        break;
      }

      case OpCode::kGinMix: {
        // Tape order: self = h * (1 + omega), then agg + self. The product
        // rounds before the add here too (-ffp-contract=off: no FMA).
        const Tensor& agg = slots[static_cast<size_t>(in.src0)];
        const Tensor& h = slots[static_cast<size_t>(in.src1)];
        const float s = 1.0f + in.scalar_param->at(0, 0);
        const float* PRIVIM_RESTRICT ap = agg.data();
        const float* PRIVIM_RESTRICT hp = h.data();
        float* PRIVIM_RESTRICT dp = dst.data();
        const int64_t count = dst.size();
        for (int64_t i = 0; i < count; ++i) dp[i] = ap[i] + hp[i] * s;
        break;
      }

      case OpCode::kAttnScores: {
        // Gathered src + dst projections through LeakyRelu, one edge sweep
        // instead of two gathers, an add and a pointwise op on the tape.
        const Tensor& ssrc = slots[static_cast<size_t>(in.src0)];
        const Tensor& sdst = slots[static_cast<size_t>(in.src1)];
        const int32_t* asrc = ctx.attention_src.data();
        const int32_t* adst = ctx.attention_dst.data();
        for (int64_t e = 0; e < num_edges; ++e) {
          dst.at(e, 0) = nn::LeakyReluValue(
              ssrc.at(asrc[e], 0) + sdst.at(adst[e], 0), in.scalar);
        }
        break;
      }

      case OpCode::kSegmentSoftmax: {
        const int32_t* segs = in.segments == SegArray::kAttentionSrc
                                  ? ctx.attention_src.data()
                                  : ctx.attention_dst.data();
        SegmentSoftmaxValuesInto(slots[static_cast<size_t>(in.src0)], segs,
                                 n, &dst);
        break;
      }

      case OpCode::kEdgeAggregate: {
        const Tensor& t = slots[static_cast<size_t>(in.src1)];
        dst.Fill(0.0f);
        EdgeAggregateKernel(num_edges, t.cols(), ctx.attention_src.data(),
                            ctx.attention_dst.data(),
                            slots[static_cast<size_t>(in.src0)].data(),
                            t.data(), dst.data());
        break;
      }

      case OpCode::kBiasAct: {
        const Tensor& src = slots[static_cast<size_t>(in.src0)];
        std::copy(src.data(), src.data() + src.size(), dst.data());
        BiasActSweep(in.bias->data(), in.act, dst.rows(), dst.cols(),
                     dst.data());
        break;
      }
    }

    if (observer) observer(step, in, slots);
    if (policy == SlotPolicy::kRelease) {
      for (const int src : {in.src0, in.src1}) {
        if (src >= 0 &&
            last_reader_[static_cast<size_t>(src)] == static_cast<int>(step)) {
          slots[static_cast<size_t>(src)] = Tensor();
        }
      }
    }
  }

  // Copy (not move) the result so the slot buffer stays warm in the
  // scratch; a caller-reused `out` keeps its own capacity, so this copy
  // allocates nothing in the steady state either.
  *out = slots[static_cast<size_t>(output_slot_)];
  return Status::OK();
}

Status InferProgram::Backward(const GraphContext& ctx, const Tensor& dscores,
                              Scratch* scratch,
                              std::vector<float>* grad) const {
  if ((ctx.parts & context_parts_) != context_parts_) {
    return Status::InvalidArgument(
        "graph context lacks operators the compiled program reads");
  }
  const int64_t n = ctx.num_nodes;
  const int64_t num_edges = static_cast<int64_t>(ctx.attention_src.size());
  std::vector<Tensor>& slots = scratch->slots;
  // A released slot is 0 x 0, and every buffer has at least one column.
  bool retained = slots.size() == buffers_.size();
  for (size_t s = 0; retained && s < slots.size(); ++s) {
    retained = slots[s].rows() == (buffers_[s].domain == RowDomain::kNodes
                                       ? n
                                       : num_edges) &&
               slots[s].cols() == buffers_[s].cols;
  }
  if (!retained) {
    return Status::FailedPrecondition(
        "Backward needs the retained slots of an Execute over the same "
        "graph");
  }
  const Tensor& out = slots[static_cast<size_t>(output_slot_)];
  if (!dscores.SameShape(out)) {
    return Status::InvalidArgument(
        "score gradient is " + std::to_string(dscores.rows()) + "x" +
        std::to_string(dscores.cols()) + ", the program's output is " +
        std::to_string(out.rows()) + "x" + std::to_string(out.cols()));
  }
  const int32_t* asrc = ctx.attention_src.data();
  const int32_t* adst = ctx.attention_dst.data();

  nn::ArenaScope scope(&scratch->pools);
  std::vector<Tensor>& grads = scratch->grads;
  grads.resize(buffers_.size());
  scratch->has_grad.assign(buffers_.size(), 0);
  grad->assign(static_cast<size_t>(parameter_count_), 0.0f);
  float* flat = grad->data();

  grads[static_cast<size_t>(output_slot_)] = dscores;
  scratch->has_grad[static_cast<size_t>(output_slot_)] = 1;
  const auto requires_grad = [this](int slot) {
    return buffers_[static_cast<size_t>(slot)].requires_grad;
  };

  for (size_t step = instrs_.size(); step-- > 0;) {
    const Instr& in = instrs_[step];
    if (!scratch->has_grad[static_cast<size_t>(in.dst)]) continue;
    Tensor& g = grads[static_cast<size_t>(in.dst)];
    const Tensor& y = slots[static_cast<size_t>(in.dst)];

    switch (in.op) {
      case OpCode::kSpMM: {
        if (!requires_grad(in.src0)) break;
        const Tensor& x = slots[static_cast<size_t>(in.src0)];
        Tensor dx = Tensor::Uninitialized(x.rows(), x.cols());
        SpMMTransposeValuesInto(*AdjFor(ctx, in.adj), g, &dx);
        Contribute(in.src0, std::move(dx), scratch);
        break;
      }

      case OpCode::kDense: {
        // act(x * W + b): the bias/activation pullback, then MatMul's —
        // MatMulABT into x, MatMulATB into W.
        if (in.bias != nullptr || in.act != Activation::kNone) {
          BiasActGrad(in.act, y.data(),
                      in.bias != nullptr ? flat + in.bias_grad : nullptr,
                      g.rows(), g.cols(), g.data());
        }
        const Tensor& x = slots[static_cast<size_t>(in.src0)];
        if (requires_grad(in.src0)) {
          Contribute(in.src0, MatMulABT(g, *in.weight), scratch);
        }
        const Tensor dw = MatMulATB(x, g);
        std::copy(dw.data(), dw.data() + dw.size(), flat + in.weight_grad);
        break;
      }

      case OpCode::kConcat: {
        const int64_t d1 = buffers_[static_cast<size_t>(in.src0)].cols;
        const int64_t d2 = buffers_[static_cast<size_t>(in.src1)].cols;
        const int srcs[2] = {in.src0, in.src1};
        for (int part = 0; part < 2; ++part) {
          if (!requires_grad(srcs[part])) continue;
          const int64_t width = part == 0 ? d1 : d2;
          const int64_t skip = part == 0 ? 0 : d1;
          Tensor dpart = Tensor::Uninitialized(g.rows(), width);
          for (int64_t i = 0; i < g.rows(); ++i) {
            const float* grow = g.data() + i * (d1 + d2) + skip;
            std::copy(grow, grow + width, dpart.data() + i * width);
          }
          Contribute(srcs[part], std::move(dpart), scratch);
        }
        break;
      }

      case OpCode::kGinMix: {
        // Tape: mixed = Add(agg, ScaleByScalar(h, Add(1, omega))). Add
        // hands both summands 0 + g; ScaleByScalar gives h the scaled
        // gradient and the scalar a float-product, double-sum dot, which
        // the inner Add hands omega as 0 + d.
        const float* PRIVIM_RESTRICT hp =
            slots[static_cast<size_t>(in.src1)].data();
        float* PRIVIM_RESTRICT gp = g.data();
        const int64_t count = g.size();
        for (int64_t i = 0; i < count; ++i) gp[i] = 0.0f + gp[i];
        const float scale = 1.0f + in.scalar_param->at(0, 0);
        if (requires_grad(in.src1)) {
          Tensor dh = Tensor::Uninitialized(g.rows(), g.cols());
          float* PRIVIM_RESTRICT dp = dh.data();
          for (int64_t i = 0; i < count; ++i) dp[i] = gp[i] * scale;
          Contribute(in.src1, std::move(dh), scratch);
        }
        double dot = 0.0;
        for (int64_t i = 0; i < count; ++i) dot += gp[i] * hp[i];
        flat[in.scalar_grad] = 0.0f + static_cast<float>(dot);
        if (requires_grad(in.src0)) Contribute(in.src0, std::move(g), scratch);
        break;
      }

      case OpCode::kAttnScores: {
        // Tape: LeakyRelu(Add(GatherRows(s_src), GatherRows(s_dst))). The
        // derivative comes from the pre-activation sum; Add hands each
        // gather 0 + d, and each gather scatter-adds onto zeros.
        const Tensor& ssrc = slots[static_cast<size_t>(in.src0)];
        const Tensor& sdst = slots[static_cast<size_t>(in.src1)];
        Tensor dsrc = Tensor::Zeros(n, 1);
        Tensor ddst = Tensor::Zeros(n, 1);
        for (int64_t e = 0; e < num_edges; ++e) {
          const float pre = ssrc.at(asrc[e], 0) + sdst.at(adst[e], 0);
          const float d =
              0.0f + g.at(e, 0) * (pre > 0.0f ? 1.0f : in.scalar);
          dsrc.at(asrc[e], 0) += d;
          ddst.at(adst[e], 0) += d;
        }
        if (requires_grad(in.src0)) {
          Contribute(in.src0, std::move(dsrc), scratch);
        }
        if (requires_grad(in.src1)) {
          Contribute(in.src1, std::move(ddst), scratch);
        }
        break;
      }

      case OpCode::kSegmentSoftmax: {
        if (!requires_grad(in.src0)) break;
        const int32_t* segs =
            in.segments == SegArray::kAttentionSrc ? asrc : adst;
        Tensor dscore = Tensor::Uninitialized(num_edges, 1);
        SegmentSoftmaxGradInto(y, g, segs, n, &dscore);
        Contribute(in.src0, std::move(dscore), scratch);
        break;
      }

      case OpCode::kEdgeAggregate: {
        const Tensor& t = slots[static_cast<size_t>(in.src1)];
        Tensor dalpha = Tensor::Uninitialized(num_edges, 1);
        Tensor dt = Tensor::Zeros(t.rows(), t.cols());
        EdgeAggregateGradKernel(num_edges, t.cols(), asrc, adst,
                                slots[static_cast<size_t>(in.src0)].data(),
                                t.data(), g.data(), dalpha.data(),
                                dt.data());
        if (requires_grad(in.src0)) {
          Contribute(in.src0, std::move(dalpha), scratch);
        }
        if (requires_grad(in.src1)) {
          Contribute(in.src1, std::move(dt), scratch);
        }
        break;
      }

      case OpCode::kBiasAct: {
        BiasActGrad(in.act, y.data(), flat + in.bias_grad, g.rows(),
                    g.cols(), g.data());
        if (requires_grad(in.src0)) Contribute(in.src0, std::move(g), scratch);
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace infer
}  // namespace privim
