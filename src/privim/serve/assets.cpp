#include "privim/serve/assets.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "privim/ckpt/io.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/serialization.h"
#include "privim/nn/arena.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace serve {

namespace {

obs::Counter* FusedForwardCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.infer.fused_forwards");
  return c;
}

}  // namespace

void ServingAssets::CountFusedForward(uint64_t n) const {
  fused_forwards_.fetch_add(n, std::memory_order_relaxed);
  FusedForwardCounter()->Increment(n);
}

Result<InferEngineKind> InferEngineKindFromString(const std::string& name) {
  if (name == "fused") return InferEngineKind::kFused;
  if (name == "tape") return InferEngineKind::kTape;
  return Status::InvalidArgument("unknown inference engine \"" + name +
                                 "\" (expected fused | tape)");
}

const char* InferEngineKindToString(InferEngineKind kind) {
  switch (kind) {
    case InferEngineKind::kFused:
      return "fused";
    case InferEngineKind::kTape:
      return "tape";
  }
  return "?";
}

std::string FingerprintHex(uint64_t fingerprint) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return text;
}

Result<std::shared_ptr<const ServingAssets>> ServingAssets::Build(
    Graph graph, std::shared_ptr<const GnnModel> model,
    std::shared_ptr<const SketchIndex> sketch, InferEngineKind engine_kind) {
  return Build(std::make_shared<const Graph>(std::move(graph)),
               std::move(model), std::move(sketch), engine_kind);
}

Result<std::shared_ptr<const ServingAssets>> ServingAssets::Build(
    std::shared_ptr<const Graph> graph, std::shared_ptr<const GnnModel> model,
    std::shared_ptr<const SketchIndex> sketch, InferEngineKind engine_kind) {
  if (graph == nullptr) {
    return Status::InvalidArgument("serving assets need a graph");
  }
  if (graph->num_nodes() < 1) {
    return Status::InvalidArgument("serving graph must have at least 1 node");
  }
  std::shared_ptr<ServingAssets> assets(new ServingAssets());
  assets->graph_ = std::move(graph);
  assets->model_ = std::move(model);
  assets->engine_kind_ = engine_kind;

  // Bind cached responses to this exact (graph, model) pair: the graph's
  // structural fingerprint chained with the model's serialized bytes.
  assets->graph_fingerprint_ = ckpt::FingerprintGraph(*assets->graph_);
  uint64_t fp = assets->graph_fingerprint_;
  if (assets->model_ != nullptr) {
    std::ostringstream encoded;
    PRIVIM_RETURN_NOT_OK(WriteGnnModel(*assets->model_, encoded));
    fp = ckpt::Fnv1a64(encoded.str(), fp);
  }
  assets->fingerprint_ = fp;

  // The sketch index stores only the structural graph fingerprint (its
  // content is model-independent), so the match is against the graph
  // alone; cached responses stay keyed by the full fingerprint_ as always.
  if (sketch != nullptr) {
    if (sketch->graph_fingerprint() != assets->graph_fingerprint_) {
      return Status::FailedPrecondition(
          "sketch index was built for a different graph (index fingerprint " +
          std::to_string(sketch->graph_fingerprint()) + ", serving graph " +
          std::to_string(assets->graph_fingerprint_) + ")");
    }
    assets->sketch_ = std::move(sketch);
  }

  // The fused engine is strictly an execution strategy: responses are
  // bit-identical to the tape, so the engine kind never enters the cache
  // fingerprint, and a model the compiler or probe rejects silently serves
  // on the tape path (visible only in stats/metrics).
  if (assets->model_ != nullptr && engine_kind == InferEngineKind::kFused) {
    Result<std::unique_ptr<infer::InferEngine>> engine =
        infer::InferEngine::Create(assets->model_);
    if (engine.ok()) {
      assets->engine_ = std::move(engine).value();
    } else {
      assets->infer_fallback_reason_ = engine.status().message();
    }
  }
  return std::shared_ptr<const ServingAssets>(std::move(assets));
}

Result<Tensor> ServingAssets::Scores() const {
  std::lock_guard<std::mutex> lock(scores_mutex_);
  if (!scores_ready_) {
    scores_ready_ = true;
    if (model_ == nullptr) {
      scores_status_ = Status::FailedPrecondition(
          "service was created without a model; influence scores and "
          "method=model top-k need --model");
    } else if (engine_ != nullptr) {
      obs::TraceSpan span("serve.forward");
      const Status status = engine_->ForwardGraph(*graph_, &scores_);
      if (status.ok()) {
        CountFusedForward();
      } else {
        scores_status_ = status;
      }
    } else {
      obs::TraceSpan span("serve.forward");
      // Arena-scope the one-shot forward so features, activations, and the
      // dropped tape draw from (and return to) a local pool instead of the
      // heap. scores_ safely outlives the pool: Acquire hands out
      // self-owning storage, and release without an active arena is a
      // normal free.
      nn::MemoryPools pools;
      nn::ArenaScope scope(&pools);
      const GraphContext ctx = GraphContext::Build(*graph_);
      const Tensor features =
          BuildNodeFeatures(*graph_, model_->config().input_dim);
      Result<Variable> out = model_->Run(ctx, features);
      if (out.ok()) {
        scores_ = out.value().value();
      } else {
        scores_status_ = out.status();
      }
    }
  }
  if (!scores_status_.ok()) return scores_status_;
  return scores_;
}

}  // namespace serve
}  // namespace privim
