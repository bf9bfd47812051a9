// The fused inference engine: the one no-grad forward over a whole graph.
//
// An InferEngine owns a compiled InferProgram plus a pool of Scratch
// buffers: Create() compiles the model AND verifies it, Forward() runs one
// graph, and ForwardBatched() stacks many small subgraphs into
// block-diagonal super-graphs so a whole admission batch costs a few large
// fused forwards instead of many small tape replays. ScoreGraph() is the
// one-shot form that the pipeline, the baselines and the CLI rank a graph
// with after training.
//
// Verification: structural compilation (compile.h) checks parameter shapes
// but cannot see an overridden Forward(). Create() therefore runs a fixed
// probe graph through both the fused program and the model's own tape
// forward and requires bit-exact agreement; a model that diverges is
// rejected with FailedPrecondition. ScoreGraph() and TrainDpGnn (which
// creates an engine once per call and differentiates through program())
// return that error to their callers; the serving layer falls back to the
// tape path instead (serve.infer.fallbacks counter).
//
// Batching correctness: the block-diagonal union preserves each request's
// result bit-exactly because (a) every CSR row of the union touches only
// its own block, (b) per-segment attention edge order (in-arcs ascending,
// then the self-loop) is preserved under the disjoint union, and (c) node
// features are salted by global id, so a node's feature row is identical
// in every stacking. tests/nn/infer_checker_test.cpp pins all three.

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
  /// an internal pool, so concurrent calls never contend on tensors.
  Status Forward(const GraphContext& ctx, const Tensor& features,
                 Tensor* out) const;

  /// Forward over the whole of `graph`: builds only the context operators
  /// the program reads, plus the graph's own node features.
  Status ForwardGraph(const Graph& graph, Tensor* out) const;

  /// One entry of a batched forward: a local graph plus the global node ids
  /// used to salt its features (null means the graph's own ids, i.e. the
  /// graph is not a subgraph of anything).
  struct BatchItem {
    const Graph* graph = nullptr;
    const std::vector<NodeId>* global_ids = nullptr;
  };

  /// Runs every item and fills outs[i] with item i's (n_i x 1) scores,
  /// bit-identical to calling Forward on each item alone. Items are sharded
  /// into min(items, threads) block-diagonal unions executed in parallel on
  /// the global thread pool, so a batch is both fused and parallel.
  Status ForwardBatched(const std::vector<BatchItem>& items,
                        std::vector<Tensor>* outs) const;

  const GnnModel& model() const { return *model_; }
  const InferProgram& program() const { return program_; }

 private:
  InferEngine(std::shared_ptr<const GnnModel> model, InferProgram program)
      : model_(std::move(model)), program_(std::move(program)) {}

  class ScratchLease;

  /// Runs the probe-graph comparison against the tape path.
  Status VerifyAgainstTape() const;

  /// Builds the block-diagonal union of items [begin, end), executes it
  /// once, and scatters the per-item score columns into *outs.
  Status RunUnionChunk(const std::vector<BatchItem>& items, size_t begin,
                       size_t end, std::vector<Tensor>* outs) const;

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
