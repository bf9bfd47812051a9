// Dual-path checker for the fused inference engine.
//
// RunDualPath() drives one (model, graph) pair down both execution paths —
// the compiled InferProgram and the autograd tape — and compares them at
// two granularities:
//
//   * per op: after every fused instruction, the same step is re-derived
//     through the tape ops (MatMul/SpMM/SegmentSoftmax/...) from the fused
//     engine's own input slots, and the two outputs are compared. A
//     divergence therefore names the exact instruction that broke, not
//     just "the output differs".
//   * end to end: the program's final score column against the model's own
//     Forward().
//
// Both comparisons record max-abs-diff AND bitwise equality. The repo's
// contract is exact = true everywhere (shared kernels, -ffp-contract=off);
// the tolerance fields exist so a failure report is quantitative — "step 3
// dense diverged by 3e-7" reads very differently from "by 40.0".
//
// RunGradientDualPath() does the same for the reverse pass: one objective
// over the model's scores, differentiated on the tape through
// model.Forward() and through the program (Execute, the objective over a
// leaf holding the scores, InferProgram::Backward), exactly as DP-SGD does.
// The flat gradients and the losses must be byte-equal; a failure names the
// first differing parameter and index.

#ifndef PRIVIM_TESTS_TESTING_DUAL_PATH_H_
#define PRIVIM_TESTS_TESTING_DUAL_PATH_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/models.h"
#include "privim/graph/graph.h"
#include "privim/nn/autograd.h"
#include "privim/nn/infer/compile.h"
#include "privim/nn/infer/program.h"
#include "privim/nn/ops.h"

namespace privim {
namespace testing {

/// One per-instruction comparison from a dual-path run.
struct OpCheck {
  size_t step = 0;
  std::string op;  ///< OpCodeName of the instruction
  int64_t rows = 0;
  int64_t cols = 0;
  float max_abs_diff = 0.0f;
  bool exact = false;  ///< fused and tape outputs are bitwise equal
};

struct DualPathReport {
  std::vector<OpCheck> ops;
  float end_to_end_max_abs_diff = 0.0f;
  bool end_to_end_exact = false;

  bool AllExact() const {
    if (!end_to_end_exact) return false;
    for (const OpCheck& check : ops) {
      if (!check.exact) return false;
    }
    return true;
  }

  float MaxAbsDiff() const {
    float max = end_to_end_max_abs_diff;
    for (const OpCheck& check : ops) max = std::max(max, check.max_abs_diff);
    return max;
  }

  /// The per-op report, one line per instruction — attach to a test
  /// failure so the diverging op is named in the output.
  std::string ToString() const {
    std::ostringstream out;
    out << "step  op                dims        max_abs_diff  exact\n";
    for (const OpCheck& check : ops) {
      out << check.step << "  " << check.op << "  " << check.rows << "x"
          << check.cols << "  " << check.max_abs_diff << "  "
          << (check.exact ? "yes" : "NO") << "\n";
    }
    out << "end-to-end  max_abs_diff=" << end_to_end_max_abs_diff
        << "  exact=" << (end_to_end_exact ? "yes" : "NO") << "\n";
    return out.str();
  }
};

namespace internal {

/// Compares `got` against `want` elementwise, returning (max |diff|,
/// bitwise-equal). NaNs compare unequal by value but equal by bits, which
/// is why the exact check is memcmp, not ==.
inline void CompareTensors(const Tensor& got, const Tensor& want,
                           float* max_abs_diff, bool* exact) {
  *exact = got.rows() == want.rows() && got.cols() == want.cols() &&
           std::memcmp(got.data(), want.data(),
                       static_cast<size_t>(want.size()) * sizeof(float)) == 0;
  *max_abs_diff = 0.0f;
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    *max_abs_diff = std::numeric_limits<float>::infinity();
    return;
  }
  for (int64_t i = 0; i < want.size(); ++i) {
    const float diff = std::fabs(got.data()[i] - want.data()[i]);
    if (diff > *max_abs_diff || std::isnan(diff)) *max_abs_diff = diff;
  }
}

/// Re-derives one fused instruction through the tape ops, reading inputs
/// from the fused engine's slot array so each step is checked in isolation.
inline Tensor TapeReference(const infer::Instr& in,
                            const std::vector<Tensor>& slots,
                            const GraphContext& ctx) {
  const auto leaf = [](const Tensor& t) { return Variable(t); };
  const Variable s0 = leaf(slots[static_cast<size_t>(in.src0)]);
  switch (in.op) {
    case infer::OpCode::kSpMM: {
      std::shared_ptr<const SparseMatrix> adj;
      switch (in.adj) {
        case infer::AdjKind::kGcn:
          adj = ctx.gcn_adj;
          break;
        case infer::AdjKind::kMeanIn:
          adj = ctx.mean_in_adj;
          break;
        case infer::AdjKind::kSumIn:
          adj = ctx.sum_in_adj;
          break;
      }
      return SpMM(adj, s0).value();
    }
    case infer::OpCode::kDense: {
      Variable y = MatMul(s0, leaf(*in.weight));
      if (in.bias != nullptr) y = AddRowBroadcast(y, leaf(*in.bias));
      if (in.act == infer::Activation::kRelu) y = Relu(y);
      if (in.act == infer::Activation::kSigmoid) y = Sigmoid(y);
      return y.value();
    }
    case infer::OpCode::kConcat:
      return ConcatCols(s0, leaf(slots[static_cast<size_t>(in.src1)]))
          .value();
    case infer::OpCode::kGinMix: {
      // models.cpp: self = h * (1 + omega), then agg + self.
      const Variable one(Tensor::Scalar(1.0f));
      const Variable scale = Add(one, leaf(*in.scalar_param));
      return Add(s0, ScaleByScalar(leaf(slots[static_cast<size_t>(in.src1)]),
                                   scale))
          .value();
    }
    case infer::OpCode::kAttnScores: {
      const Variable src_part =
          GatherRows(s0, std::span<const int32_t>(ctx.attention_src));
      const Variable dst_part =
          GatherRows(leaf(slots[static_cast<size_t>(in.src1)]),
                     std::span<const int32_t>(ctx.attention_dst));
      return LeakyRelu(Add(src_part, dst_part), in.scalar).value();
    }
    case infer::OpCode::kSegmentSoftmax: {
      const std::vector<int32_t>& segments =
          in.segments == infer::SegArray::kAttentionSrc ? ctx.attention_src
                                                        : ctx.attention_dst;
      return SegmentSoftmax(s0, std::span<const int32_t>(segments),
                            ctx.num_nodes)
          .value();
    }
    case infer::OpCode::kEdgeAggregate: {
      // models.cpp: alpha-scaled source rows, summed per destination.
      const Variable messages = MulColBroadcast(
          s0, GatherRows(leaf(slots[static_cast<size_t>(in.src1)]),
                         std::span<const int32_t>(ctx.attention_src)));
      return SegmentSum(messages, std::span<const int32_t>(ctx.attention_dst),
                        ctx.num_nodes)
          .value();
    }
    case infer::OpCode::kBiasAct: {
      Variable y = AddRowBroadcast(s0, leaf(*in.bias));
      if (in.act == infer::Activation::kRelu) y = Relu(y);
      if (in.act == infer::Activation::kSigmoid) y = Sigmoid(y);
      return y.value();
    }
  }
  return Tensor();
}

}  // namespace internal

/// Compiles `model`, runs `graph` down both paths, and reports per-op and
/// end-to-end agreement. `policy` is the compiled forward's slot policy;
/// the observer runs before a step's inputs are released, so the per-op
/// checks are the same under both. Errors from compilation or execution
/// propagate.
inline Result<DualPathReport> RunDualPath(
    const GnnModel& model, const Graph& graph,
    infer::SlotPolicy policy = infer::SlotPolicy::kRetain) {
  Result<infer::InferProgram> program = infer::CompileForInference(model);
  if (!program.ok()) return program.status();

  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features =
      BuildNodeFeatures(graph, model.config().input_dim);

  DualPathReport report;
  infer::Scratch scratch;
  Tensor fused;
  const infer::StepObserver observer =
      [&](size_t step, const infer::Instr& in,
          const std::vector<Tensor>& slots) {
        const Tensor want = internal::TapeReference(in, slots, ctx);
        const Tensor& got = slots[static_cast<size_t>(in.dst)];
        OpCheck check;
        check.step = step;
        check.op = infer::OpCodeName(in.op);
        check.rows = got.rows();
        check.cols = got.cols();
        internal::CompareTensors(got, want, &check.max_abs_diff,
                                 &check.exact);
        report.ops.push_back(std::move(check));
      };
  PRIVIM_RETURN_NOT_OK(program.value().Execute(ctx, features, &scratch,
                                               &fused, observer, policy));

  Result<Variable> tape = model.Run(ctx, features);
  if (!tape.ok()) return tape.status();
  internal::CompareTensors(fused, tape.value().value(),
                           &report.end_to_end_max_abs_diff,
                           &report.end_to_end_exact);
  return report;
}

/// An objective over a model's (n x 1) scores, in the shape DP-SGD applies
/// it (core/trainer.h's SubgraphLossFn without the subgraph).
using ScoreObjective = std::function<Result<Variable>(
    const Variable& scores, const GraphContext& ctx)>;

struct GradientReport {
  bool loss_exact = false;  ///< the two objective values are bitwise equal
  bool exact = false;       ///< the two flat gradients are bitwise equal
  float max_abs_diff = 0.0f;
  /// "parameter P (RxC) index I: program X, tape Y" for the first
  /// differing entry; empty when exact.
  std::string first_difference;

  std::string ToString() const {
    std::ostringstream out;
    out << "loss exact=" << (loss_exact ? "yes" : "NO")
        << "  gradient exact=" << (exact ? "yes" : "NO")
        << "  max_abs_diff=" << max_abs_diff;
    if (!first_difference.empty()) out << "  first: " << first_difference;
    return out.str();
  }
};

/// Differentiates `objective` over `model` on `graph` down both paths and
/// compares the flat parameter gradients and the losses bitwise. The
/// program runs in `scratch` when given (a fresh one otherwise). Errors
/// from compilation, execution or the objective propagate.
inline Result<GradientReport> RunGradientDualPath(
    const GnnModel& model, const Graph& graph,
    const ScoreObjective& objective, infer::Scratch* scratch = nullptr) {
  Result<infer::InferProgram> program = infer::CompileForInference(model);
  if (!program.ok()) return program.status();
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, model.config().input_dim);
  const std::vector<Variable>& params = model.parameters();
  const auto zero_grads = [&params] {
    for (const Variable& p : params) const_cast<Variable&>(p).ZeroGrad();
  };

  // The tape: the model's own Forward, the objective, Backward, flatten.
  std::vector<float> want;
  float tape_loss = 0.0f;
  {
    zero_grads();
    Result<Variable> scores = model.Run(ctx, features);
    if (!scores.ok()) return scores.status();
    Result<Variable> loss = objective(scores.value(), ctx);
    if (!loss.ok()) return loss.status();
    tape_loss = loss.value().value().at(0, 0);
    loss.value().Backward();
    FlattenGradientsInto(params, &want);
    zero_grads();
  }

  // The program: forward into a scratch, the objective over a leaf, and
  // the reverse pass from the leaf's gradient.
  std::vector<float> got;
  float program_loss = 0.0f;
  {
    infer::Scratch fresh;
    if (scratch == nullptr) scratch = &fresh;
    Tensor out;
    PRIVIM_RETURN_NOT_OK(
        program.value().Execute(ctx, features, scratch, &out));
    const Variable leaf(out, /*requires_grad=*/true);
    Result<Variable> loss = objective(leaf, ctx);
    if (!loss.ok()) return loss.status();
    program_loss = loss.value().value().at(0, 0);
    loss.value().Backward();
    if (leaf.node()->grad_initialized) {
      PRIVIM_RETURN_NOT_OK(program.value().Backward(
          ctx, leaf.node()->grad, scratch, &got));
    } else {
      got.assign(want.size(), 0.0f);
    }
  }

  GradientReport report;
  report.loss_exact =
      std::memcmp(&tape_loss, &program_loss, sizeof(float)) == 0;
  report.exact = got.size() == want.size() &&
                 std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)) == 0;
  if (got.size() != want.size()) {
    report.max_abs_diff = std::numeric_limits<float>::infinity();
    report.first_difference = "program gradient has " +
                              std::to_string(got.size()) +
                              " entries, tape " + std::to_string(want.size());
    return report;
  }
  size_t offset = 0;
  for (size_t p = 0; p < params.size(); ++p) {
    const Tensor& value = params[p].value();
    for (int64_t i = 0; i < value.size(); ++i) {
      const size_t at = offset + static_cast<size_t>(i);
      const float diff = std::fabs(got[at] - want[at]);
      if (diff > report.max_abs_diff || std::isnan(diff)) {
        report.max_abs_diff = diff;
      }
      if (report.first_difference.empty() &&
          std::memcmp(&got[at], &want[at], sizeof(float)) != 0) {
        std::ostringstream first;
        first << "parameter " << p << " (" << value.rows() << "x"
              << value.cols() << ") index " << i << ": program " << got[at]
              << ", tape " << want[at];
        report.first_difference = first.str();
      }
    }
    offset += static_cast<size_t>(value.size());
  }
  return report;
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_DUAL_PATH_H_
