// The fused inference engine: what serving keeps of a compiled model.
//
// An InferEngine owns a compiled InferProgram plus a pool of Scratch
// buffers: Forward() runs one prebuilt context, and ForwardGraph() runs one
// graph — a served subgraph — building only the context operators the
// program reads. ScoreGraph() is the one-shot form that the pipeline, the
// baselines, the CLI and serving's memoized scores rank a whole graph
// with: it compiles the model and runs the program on one scratch, and
// nothing of it outlives the call.
//
// Every GnnModel compiles (compile.h), so neither can fail on a model;
// the program's bytes are pinned against the tape forward by
// tests/nn/infer_checker_test.cpp, not checked at run time.

#ifndef PRIVIM_NN_INFER_ENGINE_H_
#define PRIVIM_NN_INFER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "privim/common/status.h"
#include "privim/gnn/models.h"
#include "privim/graph/graph.h"
#include "privim/nn/infer/program.h"

namespace privim {
namespace infer {

class InferEngine {
 public:
  /// Compiles `model`; InvalidArgument when it is null. The engine shares
  /// ownership of the model — compiled instructions borrow its parameters.
  static Result<std::unique_ptr<InferEngine>> Create(
      std::shared_ptr<const GnnModel> model);

  /// Fused forward over one prebuilt graph context. Writes the (n x 1)
  /// score column into *out. Thread-safe; scratch buffers are leased from
  /// an internal pool, so concurrent calls never contend on tensors. Runs
  /// with SlotPolicy::kRelease: a leased scratch holds the program's
  /// depth-independent footprint, not every slot. The caller keeps
  /// `features`, so the program's slot 0 is a copy of it.
  Status Forward(const GraphContext& ctx, const Tensor& features,
                 Tensor* out) const;

  /// Forward over the whole of `graph`: builds only the context operators
  /// the program reads, plus node features salted by `global_ids` (a
  /// subgraph's ids in its parent graph; null means the graph's own ids).
  /// The features it builds move into slot 0, so the forward holds one
  /// copy of them. A pooled scratch keeps its arena's buffers after the
  /// call: the next graph of a similar size reuses them, and a whole-graph
  /// forward that runs once is better served by ScoreGraph(), whose
  /// scratch dies with the call.
  Status ForwardGraph(const Graph& graph, Tensor* out,
                      const std::vector<NodeId>* global_ids = nullptr) const;

  const GnnModel& model() const { return *model_; }
  const InferProgram& program() const { return program_; }

  /// Bytes of idle buffers in the arenas of the scratches the pool keeps
  /// between calls (TensorArena::pooled_bytes).
  uint64_t pooled_arena_bytes() const;

 private:
  InferEngine(std::shared_ptr<const GnnModel> model, InferProgram program)
      : model_(std::move(model)), program_(std::move(program)) {}

  class ScratchLease;

  std::unique_ptr<Scratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<Scratch> scratch) const;

  std::shared_ptr<const GnnModel> model_;
  InferProgram program_;

  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_;
};

/// The (n x 1) scores of every node of `graph` under `model`, computed by
/// the compiled program without a tape and bit-identical to
/// model.Forward() on a full GraphContext.
Result<Tensor> ScoreGraph(const GnnModel& model, const Graph& graph);

}  // namespace infer
}  // namespace privim

#endif  // PRIVIM_NN_INFER_ENGINE_H_
