// Immutable serving-asset snapshots.
//
// A ServingAssets bundles everything a request executes against — the
// evaluation graph, the released (privatized) model, its compiled
// inference engine, the precomputed RIS sketch index, and the fingerprints
// that bind cached responses to this exact content. A snapshot is
// immutable after Build(): the InfluenceService publishes the current one
// through an atomic shared_ptr, every request captures the snapshot it was
// admitted under, and a hot swap (SwapAssets / the admin wire op) simply
// repoints the pointer. In-flight requests finish on the snapshot they
// started with; the response cache keys on the snapshot fingerprint, so a
// swap can never surface a stale payload — entries for a retired snapshot
// stop matching and age out of the LRU.
//
// Fingerprints are content-derived (graph structure chained with the
// serialized model bytes), not identity-derived: swapping A -> B -> A'
// where A' has the same bytes as A re-enables A's cache entries, which is
// exactly right because the responses are pure functions of the content.
//
// Build() also enforces cross-asset consistency up front — a sketch index
// built for a different graph is refused here, so a snapshot can never
// pair an index with a graph it does not describe.

#ifndef PRIVIM_SERVE_ASSETS_H_
#define PRIVIM_SERVE_ASSETS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "privim/common/status.h"
#include "privim/gnn/models.h"
#include "privim/graph/graph.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/nn/infer/engine.h"
#include "privim/nn/tensor.h"

namespace privim {
namespace serve {

/// The one forward-pass implementation: compiled tape-free programs
/// (nn/infer). The enum and Build()'s last parameter remain only because
/// perfbench/serve_bench.cpp passes them; Build() ignores the value.
enum class InferEngineKind { kFused };

/// One immutable (graph, model, engine, sketch) snapshot. Thread-safe for
/// concurrent readers; the only mutable state is the lazily memoized
/// whole-graph score tensor, which is guarded internally.
class ServingAssets {
 public:
  /// Validates and assembles a snapshot. `model` and `sketch` may be null
  /// (graph-only serving / no index). A sketch index whose graph
  /// fingerprint differs from `graph`'s is refused with FailedPrecondition
  /// — a snapshot can never pair a stale index with the serving graph.
  /// With a model, the engine is compiled here; every model compiles.
  static Result<std::shared_ptr<const ServingAssets>> Build(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const GnnModel> model,
      std::shared_ptr<const SketchIndex> sketch,
      InferEngineKind engine_kind = InferEngineKind::kFused);

  /// Convenience overload taking the graph by value.
  static Result<std::shared_ptr<const ServingAssets>> Build(
      Graph graph, std::shared_ptr<const GnnModel> model,
      std::shared_ptr<const SketchIndex> sketch,
      InferEngineKind engine_kind = InferEngineKind::kFused);

  const Graph& graph() const { return *graph_; }
  std::shared_ptr<const Graph> shared_graph() const { return graph_; }
  const GnnModel* model() const { return model_.get(); }
  bool has_model() const { return model_ != nullptr; }
  /// The engine serving this snapshot's model; null without a model.
  const infer::InferEngine* engine() const { return engine_.get(); }
  const SketchIndex* sketch() const { return sketch_.get(); }

  /// FNV fingerprint binding cached responses to this exact model + graph.
  uint64_t fingerprint() const { return fingerprint_; }
  /// Structural fingerprint of the graph alone (what a sketch index pins).
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }

  /// Model scores over the whole graph, computed once per snapshot and
  /// memoized — the forward pass is deterministic, so every
  /// influence/topk(model) request against this snapshot shares it. The
  /// forward runs through infer::ScoreGraph, so its whole-graph buffers are
  /// freed when it returns, not pooled in engine().
  Result<Tensor> Scores() const;

  /// Forward passes run against this snapshot.
  uint64_t fused_forwards() const {
    return fused_forwards_.load(std::memory_order_relaxed);
  }
  /// Counts one fused forward (called by the service's subgraph path,
  /// which runs the engine itself). Also feeds the
  /// serve.infer.fused_forwards metric, so stats and metrics cannot drift.
  void CountFusedForward() const;

 private:
  ServingAssets() = default;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const GnnModel> model_;
  /// The engine borrows the model's parameters, so it is declared after
  /// model_ (destroyed first).
  std::unique_ptr<infer::InferEngine> engine_;
  std::shared_ptr<const SketchIndex> sketch_;
  uint64_t fingerprint_ = 0;
  uint64_t graph_fingerprint_ = 0;

  mutable std::mutex scores_mutex_;
  mutable bool scores_ready_ = false;
  mutable Status scores_status_;
  mutable Tensor scores_;
  mutable std::atomic<uint64_t> fused_forwards_{0};
};

/// "%016x" rendering of a fingerprint for wire payloads (a raw uint64 does
/// not survive the JSON number type, which is a double).
std::string FingerprintHex(uint64_t fingerprint);

}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_ASSETS_H_
