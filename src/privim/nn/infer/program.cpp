#include "privim/nn/infer/program.h"

#include <algorithm>
#include <cassert>
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

// The fused bias+activation sweep. Applying act(x + b) in one pass performs
// the same two float operations, in the same order, as the tape's separate
// AddRowBroadcast and activation ops; -ffp-contract=off forbids the
// compiler from contracting them, so the result is bit-identical.
void BiasActSweep(const float* PRIVIM_RESTRICT bias, Activation act,
                  int64_t rows, int64_t cols, float* PRIVIM_RESTRICT data) {
  for (int64_t i = 0; i < rows; ++i) {
    float* PRIVIM_RESTRICT row = data + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      float v = row[j];
      if (bias != nullptr) v += bias[j];
      switch (act) {
        case Activation::kNone:
          break;
        case Activation::kRelu:
          v = nn::ReluValue(v);
          break;
        case Activation::kSigmoid:
          v = nn::SigmoidValue(v);
          break;
      }
      row[j] = v;
    }
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

}  // namespace

Status InferProgram::Execute(const GraphContext& ctx, const Tensor& features,
                             Scratch* scratch, Tensor* out,
                             const StepObserver& observer) const {
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
  // warm Scratch executes without touching the heap.
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
  }

  // Copy (not move) the result so the slot buffer stays warm in the
  // scratch; a caller-reused `out` keeps its own capacity, so this copy
  // allocates nothing in the steady state either.
  *out = slots[static_cast<size_t>(output_slot_)];
  return Status::OK();
}

}  // namespace infer
}  // namespace privim
