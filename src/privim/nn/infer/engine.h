// The fused inference engine: the one no-grad forward over a whole graph.
//
// An InferEngine owns a compiled InferProgram plus a pool of Scratch
// buffers: Create() compiles the model AND verifies it, Forward() runs one
// prebuilt context, and ForwardGraph() runs one graph — a whole graph or a
// served subgraph — building only the context operators the program reads.
// ScoreGraph() is the one-shot form that the pipeline, the baselines and
// the CLI rank a graph with after training.
//
// Verification: structural compilation (compile.h) checks parameter shapes
// but cannot see an overridden Forward(). Create() therefore runs a fixed
// probe graph through both the fused program and the model's own tape
// forward and requires bit-exact agreement; a model that diverges is
// rejected with FailedPrecondition. ScoreGraph() and TrainDpGnn (which
// creates an engine once per call and differentiates through program())
// return that error to their callers; the serving layer falls back to the
// tape path instead (serve.infer.fallbacks counter).

#ifndef PRIVIM_NN_INFER_ENGINE_H_
#define PRIVIM_NN_INFER_ENGINE_H_

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
  /// Compiles `model` and verifies the program against the model's own
  /// Forward on a probe graph (bit-exact). Unimplemented when the parameter
  /// layout is not a known architecture; FailedPrecondition when the probe
  /// diverges (e.g. a subclass overriding Forward). The engine shares
  /// ownership of the model — compiled instructions borrow its parameters.
  static Result<std::unique_ptr<InferEngine>> Create(
      std::shared_ptr<const GnnModel> model);

  /// Fused forward over one prebuilt graph context. Writes the (n x 1)
  /// score column into *out. Thread-safe; scratch buffers are leased from
  /// an internal pool, so concurrent calls never contend on tensors. Runs
  /// with SlotPolicy::kRelease: a leased scratch holds the program's
  /// depth-independent footprint, not every slot.
  Status Forward(const GraphContext& ctx, const Tensor& features,
                 Tensor* out) const;

  /// Forward over the whole of `graph`: builds only the context operators
  /// the program reads, plus node features salted by `global_ids` (a
  /// subgraph's ids in its parent graph; null means the graph's own ids).
  Status ForwardGraph(const Graph& graph, Tensor* out,
                      const std::vector<NodeId>* global_ids = nullptr) const;

  const GnnModel& model() const { return *model_; }
  const InferProgram& program() const { return program_; }

 private:
  InferEngine(std::shared_ptr<const GnnModel> model, InferProgram program)
      : model_(std::move(model)), program_(std::move(program)) {}

  class ScratchLease;

  /// Runs the probe graph through Forward(), the path every call serves,
  /// and compares the scores with the tape's.
  Status VerifyAgainstTape() const;

  std::unique_ptr<Scratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<Scratch> scratch) const;

  std::shared_ptr<const GnnModel> model_;
  InferProgram program_;

  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_;
};

/// The (n x 1) scores of every node of `graph` under `model`, computed by
/// the compiled program without a tape and bit-identical to
/// model.Forward() on a full GraphContext. Unimplemented when the parameter
/// layout is not a known architecture, FailedPrecondition when the probe
/// diverges; there is no tape fallback. Every CreateGnnModel model
/// compiles.
Result<Tensor> ScoreGraph(const GnnModel& model, const Graph& graph);

}  // namespace infer
}  // namespace privim

#endif  // PRIVIM_NN_INFER_ENGINE_H_
