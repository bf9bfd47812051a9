#include "privim/serve/assets.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "privim/ckpt/io.h"
#include "privim/gnn/serialization.h"
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

void ServingAssets::CountFusedForward() const {
  fused_forwards_.fetch_add(1, std::memory_order_relaxed);
  FusedForwardCounter()->Increment();
}

std::string FingerprintHex(uint64_t fingerprint) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return text;
}

Result<std::shared_ptr<const ServingAssets>> ServingAssets::Build(
    Graph graph, std::shared_ptr<const GnnModel> model,
    std::shared_ptr<const SketchIndex> sketch, InferEngineKind /*kind*/) {
  return Build(std::make_shared<const Graph>(std::move(graph)),
               std::move(model), std::move(sketch));
}

Result<std::shared_ptr<const ServingAssets>> ServingAssets::Build(
    std::shared_ptr<const Graph> graph, std::shared_ptr<const GnnModel> model,
    std::shared_ptr<const SketchIndex> sketch, InferEngineKind /*kind*/) {
  if (graph == nullptr) {
    return Status::InvalidArgument("serving assets need a graph");
  }
  if (graph->num_nodes() < 1) {
    return Status::InvalidArgument("serving graph must have at least 1 node");
  }
  std::shared_ptr<ServingAssets> assets(new ServingAssets());
  assets->graph_ = std::move(graph);
  assets->model_ = std::move(model);

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

  if (assets->model_ != nullptr) {
    Result<std::unique_ptr<infer::InferEngine>> engine =
        infer::InferEngine::Create(assets->model_);
    if (!engine.ok()) return engine.status();
    assets->engine_ = std::move(engine).value();
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
    } else {
      obs::TraceSpan span("serve.forward");
      // One whole-graph forward per snapshot. A scratch leased from
      // engine_ would go back to its pool with whole-graph buffers that the
      // subgraph requests it serves never use, for the snapshot's life;
      // ScoreGraph's scratch dies with the call instead.
      Result<Tensor> scores = infer::ScoreGraph(*model_, *graph_);
      if (scores.ok()) {
        scores_ = std::move(scores).value();
        CountFusedForward();
      } else {
        scores_status_ = scores.status();
      }
    }
  }
  if (!scores_status_.ok()) return scores_status_;
  return scores_;
}

}  // namespace serve
}  // namespace privim
