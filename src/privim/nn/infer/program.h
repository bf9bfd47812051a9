// Compiled programs: a GNN as a fixed op sequence, run forward and back.
//
// GnnModel::Forward builds a full autograd tape per call (heap-pooled, yet
// still one shared_ptr node + std::function pullback per op). An
// InferProgram is the tape-free alternative: the model's layer structure
// is compiled once (compile.h) into a flat instruction list over numbered
// buffer slots, and Execute() replays it on a caller-owned Scratch whose
// buffers are recycled through the TensorArena — zero heap allocations in
// the steady state. Backward() differentiates it the same way (below).
//
// Fusion: where the tape materializes MatMul, AddRowBroadcast and Relu as
// three ops (three tensors, three nodes), kDense runs one matmul kernel
// followed by one bias+activation sweep over the same buffer. The sweep
// performs the identical float operations in the identical order, and all
// kernels are the shared *Into functions from tensor.h / ops.h, so results
// are bit-identical to the tape under the repo-wide -ffp-contract=off
// contract (pinned by tests/nn/infer_checker_test.cpp at exact match).
//
// Attention aggregation is one sweep too: the tape gathers every edge's
// source row, scales it by alpha and segment-sums the (edges x hidden)
// messages; kEdgeAggregate adds each scaled row straight into its
// destination, in the same edge order, so no per-edge hidden-width buffer
// exists. Edge-domain buffers are therefore one column wide.
//
// Buffers are typed by row domain — kNodes (n rows) or kEdges (one row per
// attention edge) — with a fixed column count; actual row counts bind to
// the GraphContext at Execute() time, so one program serves any graph.
// A program reads only some of a context's operators (context_parts());
// callers that build a context just to execute it build only those.
//
// Reverse pass: Backward() walks the instructions last to first over the
// slots the forward left in the Scratch and writes the model's flat
// parameter gradient (GnnModel::parameters() order, row-major per tensor)
// — DP-SGD's per-subgraph gradient (core/trainer.cpp). Every pullback
// performs the tape's float operations in the tape's order, so the
// gradient is byte-equal to a tape Backward() followed by
// FlattenGradientsInto (pinned by tests/nn/infer_checker_test.cpp):
//   * a slot read by several instructions takes their contributions in
//     reverse instruction order, which is the order the tape's post-order
//     DFS delivers them (attention t: the gathered-row scatter, then the
//     s_dst and s_src projections; SAGE h: the concat half, then the mean
//     SpMM^T; GIN h: the (1 + omega) self term, then the sum SpMM^T);
//   * where the tape accumulates a gradient by const reference (Add,
//     AddRowBroadcast) it stores 0 + d, and so does the pullback here;
//   * dot products keep the tape's precision (the float product widened
//     to double in MulColBroadcast and ScaleByScalar, the per-segment
//     double in SegmentSoftmax), and LeakyReLU's derivative is taken from
//     the pre-activation score, recomputed with the forward's float add.

#ifndef PRIVIM_NN_INFER_PROGRAM_H_
#define PRIVIM_NN_INFER_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "privim/common/status.h"
#include "privim/gnn/graph_context.h"
#include "privim/nn/arena.h"
#include "privim/nn/tensor.h"

namespace privim {
namespace infer {

enum class OpCode {
  kSpMM,            ///< dst = Adj(adj) * src0
  kDense,           ///< dst = act(src0 * weight [+ bias]) — the fused core
  kConcat,          ///< dst = [src0 | src1]
  kGinMix,          ///< dst = src0 + src1 * (1 + omega), omega = *scalar_param
  kAttnScores,      ///< dst[e] = lrelu(src0[asrc[e]] + src1[adst[e]], scalar)
  kSegmentSoftmax,  ///< dst = softmax of src0 within `segments`
  kEdgeAggregate,   ///< dst[adst[e]] += src0[e] * src1[asrc[e]], e ascending
  kBiasAct,         ///< dst = act(src0 + bias row)
};

const char* OpCodeName(OpCode op);

/// Which precomputed GraphContext operator a kSpMM reads.
enum class AdjKind { kGcn, kMeanIn, kSumIn };

/// Which GraphContext index array a segment op groups by.
enum class SegArray { kAttentionSrc, kAttentionDst };

enum class Activation { kNone, kRelu, kSigmoid };

/// One instruction. Parameter tensors are borrowed from the compiled model
/// (the engine keeps the model alive); buffer operands are slot indices.
struct Instr {
  OpCode op = OpCode::kDense;
  int dst = -1;
  int src0 = -1;
  int src1 = -1;
  const Tensor* weight = nullptr;        ///< kDense
  const Tensor* bias = nullptr;          ///< kDense (optional) / kBiasAct
  const Tensor* scalar_param = nullptr;  ///< kGinMix: the 1x1 omega
  /// Where the borrowed parameters' gradients start in Backward()'s flat
  /// vector; -1 when the instruction borrows no such parameter.
  int64_t weight_grad = -1;
  int64_t bias_grad = -1;
  int64_t scalar_grad = -1;
  Activation act = Activation::kNone;
  AdjKind adj = AdjKind::kGcn;                   ///< kSpMM
  SegArray segments = SegArray::kAttentionDst;   ///< kSegmentSoftmax
  float scalar = 0.0f;                           ///< kAttnScores leaky slope
};

enum class RowDomain { kNodes, kEdges };

struct BufferSpec {
  RowDomain domain = RowDomain::kNodes;
  int64_t cols = 0;
  /// The slot depends on a parameter, so Backward() computes its gradient
  /// (the tape's requires_grad). False for the input features and for
  /// anything computed from them alone.
  bool requires_grad = false;
};

/// Preallocated execution state, reusable across Execute() and Backward()
/// calls. One Scratch may only run one call at a time; the engine
/// (engine.h) leases them from a pool and the trainer gives each worker
/// its own, so concurrent callers never share one.
struct Scratch {
  nn::MemoryPools pools;
  std::vector<Tensor> slots;
  std::vector<Tensor> grads;      ///< Backward(): per-slot gradients
  std::vector<uint8_t> has_grad;  ///< Backward(): grads[s] is set
};

/// Called after each instruction with every slot computed so far (slot 0 is
/// the input features). The checker harness uses this to re-derive each
/// step's output through the tape ops and report per-op divergence.
using StepObserver =
    std::function<void(size_t step, const Instr& instr,
                       const std::vector<Tensor>& slots)>;

/// A compiled model. Immutable after compilation; safe to Execute from many
/// threads concurrently as long as each call brings its own Scratch.
class InferProgram {
 public:
  /// Runs the program over `ctx` / `features` ((ctx.num_nodes x input_dim)),
  /// writing the (n x 1) output into *out. `out` keeps its storage when the
  /// caller reuses it across calls (no allocation once capacities warm up).
  Status Execute(const GraphContext& ctx, const Tensor& features,
                 Scratch* scratch, Tensor* out,
                 const StepObserver& observer = nullptr) const;

  /// Reverse pass of the last Execute() on `scratch`, which must have run
  /// over the same `ctx`. `dscores` is the gradient of the objective with
  /// respect to the (n x 1) output; *grad receives the gradient of every
  /// model parameter, flattened in GnnModel::parameters() order and
  /// byte-equal to a tape Backward() + FlattenGradientsInto. Keeps *grad's
  /// capacity and draws every temporary from the scratch's pools, so a
  /// warm call allocates nothing.
  Status Backward(const GraphContext& ctx, const Tensor& dscores,
                  Scratch* scratch, std::vector<float>* grad) const;

  /// The GraphContext::Part bits Execute() reads; a context built with at
  /// least these runs the program.
  uint32_t context_parts() const { return context_parts_; }

  /// Length of Backward()'s flat gradient: the model's scalar parameters.
  int64_t parameter_count() const { return parameter_count_; }

  const std::vector<Instr>& instructions() const { return instrs_; }
  /// Slot 0 is the input feature matrix; the rest are intermediates.
  const std::vector<BufferSpec>& buffers() const { return buffers_; }
  int64_t input_dim() const { return input_dim_; }
  int output_slot() const { return output_slot_; }

 private:
  friend class ProgramBuilder;

  std::vector<Instr> instrs_;
  std::vector<BufferSpec> buffers_;
  int64_t input_dim_ = 0;
  int output_slot_ = -1;
  uint32_t context_parts_ = 0;
  int64_t parameter_count_ = 0;
};

}  // namespace infer
}  // namespace privim

#endif  // PRIVIM_NN_INFER_PROGRAM_H_
