#include "privim/serve/service.h"

#include <algorithm>
#include <utility>

#include "privim/common/thread_pool.h"
#include "privim/diffusion/ic_model.h"
#include "privim/im/ris.h"
#include "privim/im/seed_selection.h"
#include "privim/im/spread_oracle.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace serve {

namespace {

obs::Counter* AdmittedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.requests.admitted");
  return c;
}
obs::Counter* RejectedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.requests.rejected");
  return c;
}
obs::Counter* CompletedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.requests.completed");
  return c;
}
obs::Counter* ErrorCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.requests.errors");
  return c;
}
obs::Counter* CacheHitCounter() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter("serve.cache.hits");
  return c;
}
obs::Counter* CacheMissCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.cache.misses");
  return c;
}
obs::Counter* SketchServeCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("im.sketch.serve_hits");
  return c;
}
obs::Counter* SketchFallbackCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("im.sketch.fallbacks");
  return c;
}
obs::Counter* SwapCounter() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter("serve.swap.count");
  return c;
}
obs::Counter* SwapErrorCounter() {
  static obs::Counter* c = obs::GlobalMetrics().GetCounter("serve.swap.errors");
  return c;
}
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* g = obs::GlobalMetrics().GetGauge("serve.queue.depth");
  return g;
}
obs::Histogram* BatchSizeHistogram() {
  static obs::Histogram* h = obs::GlobalMetrics().GetHistogram(
      "serve.batch.size", {1, 2, 4, 8, 16, 32, 64, 128});
  return h;
}
obs::Histogram* LatencyHistogram() {
  static obs::Histogram* h = obs::GlobalMetrics().GetHistogram(
      "serve.latency.seconds", obs::DefaultTimeBucketsSeconds());
  return h;
}

void UpdateMax(std::atomic<uint64_t>* sink, uint64_t candidate) {
  uint64_t current = sink->load(std::memory_order_relaxed);
  while (candidate > current &&
         !sink->compare_exchange_weak(current, candidate,
                                      std::memory_order_relaxed)) {
  }
}

JsonValue NodeArray(const std::vector<NodeId>& nodes) {
  JsonValue array = JsonValue::Array();
  for (const NodeId v : nodes) array.Append(JsonValue::Int(v));
  return array;
}

JsonValue StringArray(std::initializer_list<const char*> values) {
  JsonValue array = JsonValue::Array();
  for (const char* v : values) array.Append(JsonValue::Str(v));
  return array;
}

}  // namespace

Status ServeOptions::Validate() const {
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (max_batch > queue_capacity) {
    return Status::InvalidArgument(
        "max_batch (" + std::to_string(max_batch) +
        ") must not exceed queue_capacity (" +
        std::to_string(queue_capacity) + ")");
  }
  if (cache_capacity < 0) {
    return Status::InvalidArgument("cache_capacity must be >= 0");
  }
  if (cache_shards < 1) {
    return Status::InvalidArgument("cache_shards must be >= 1");
  }
  return Status::OK();
}

InfluenceService::InfluenceService(
    std::shared_ptr<const ServingAssets> assets, const ServeOptions& options)
    : assets_(std::move(assets)),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards) {}

Result<std::unique_ptr<InfluenceService>> InfluenceService::Create(
    std::shared_ptr<const ServingAssets> assets, const ServeOptions& options) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (assets == nullptr) {
    return Status::InvalidArgument("service needs a non-null asset snapshot");
  }
  return std::unique_ptr<InfluenceService>(
      new InfluenceService(std::move(assets), options));
}

Result<std::unique_ptr<InfluenceService>> InfluenceService::Create(
    Graph graph, std::shared_ptr<const GnnModel> model,
    const ServeOptions& options) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  Result<std::shared_ptr<const ServingAssets>> assets = ServingAssets::Build(
      std::move(graph), std::move(model), /*sketch=*/nullptr);
  if (!assets.ok()) return assets.status();
  return Create(std::move(assets).value(), options);
}

InfluenceService::~InfluenceService() { Stop(); }

std::shared_ptr<const ServingAssets> InfluenceService::assets() const {
  return assets_.load(std::memory_order_acquire);
}

Status InfluenceService::SwapAssets(
    std::shared_ptr<const ServingAssets> assets) {
  if (assets == nullptr) {
    swap_errors_.fetch_add(1, std::memory_order_relaxed);
    SwapErrorCounter()->Increment();
    return Status::InvalidArgument("swap needs a non-null asset snapshot");
  }
  const std::shared_ptr<const ServingAssets> retired =
      assets_.exchange(std::move(assets), std::memory_order_acq_rel);
  // Fold the retired snapshot's forward count into the base so the total
  // survives the swap. (A request still in flight on the retired snapshot
  // can add a few more afterwards; those late counts are dropped — the
  // stat is advisory, the responses themselves are never affected.)
  fused_forwards_base_.fetch_add(retired->fused_forwards(),
                                 std::memory_order_relaxed);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  SwapCounter()->Increment();
  return Status::OK();
}

Status InfluenceService::SetAssetsFactory(AssetsFactory factory) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (started_ || stopping_) {
    return Status::FailedPrecondition(
        "the assets factory must be installed before Start()");
  }
  assets_factory_ = std::move(factory);
  return Status::OK();
}

Status InfluenceService::Start() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (started_) {
    return Status::FailedPrecondition("service already started");
  }
  if (stopping_) {
    return Status::FailedPrecondition("service already stopped");
  }
  started_ = true;
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  return Status::OK();
}

void InfluenceService::Stop() {
  std::vector<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) {
      // No scheduler ever ran: drain whatever queued up inline so every
      // future is fulfilled.
      while (!queue_.empty()) {
        leftover.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  if (!leftover.empty()) RunBatch(&leftover);
}

Result<std::future<ServeResponse>> InfluenceService::Submit(
    const ServeRequest& request) {
  return SubmitInternal(request, /*blocking=*/true);
}

Result<std::future<ServeResponse>> InfluenceService::TrySubmit(
    const ServeRequest& request) {
  return SubmitInternal(request, /*blocking=*/false);
}

Result<std::future<ServeResponse>> InfluenceService::SubmitInternal(
    const ServeRequest& request, bool blocking) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  Status admitted = SubmitCore(
      request,
      [promise](ServeResponse response) {
        promise->set_value(std::move(response));
      },
      blocking);
  if (!admitted.ok()) {
    if (IsOverloaded(admitted)) {
      // The future-based API predates load shedding; its callers expect
      // the historical code and message for a full queue.
      return QueueFullError(options_.queue_capacity);
    }
    return admitted;
  }
  return future;
}

Status InfluenceService::SubmitAsync(const ServeRequest& request,
                                     ResponseCallback done) {
  return SubmitCore(request, std::move(done), /*blocking=*/false);
}

Status InfluenceService::SubmitCore(const ServeRequest& request,
                                    ResponseCallback done, bool blocking) {
  PRIVIM_RETURN_NOT_OK(request.Validate());

  // Capture the snapshot this request will execute against. Everything
  // downstream — cache key, graph, model, engine — comes from this one
  // pointer, so a concurrent swap cannot tear the request.
  std::shared_ptr<const ServingAssets> assets = this->assets();

  // Fast path: a cached payload completes the request inline. Admin
  // requests mutate the service and are never looked up or stored.
  if (IsCacheable(request)) {
    const CacheKey key{assets->fingerprint(), RequestDigest(request)};
    std::string payload;
    if (cache_.Lookup(key, &payload)) {
      CacheHitCounter()->Increment();
      Result<JsonValue> parsed = JsonValue::Parse(payload);
      ServeResponse response;
      response.id = request.id;
      response.cached = true;
      if (parsed.ok()) {
        response.payload = std::move(parsed).value();
      } else {
        response.status = Status::Internal("corrupt cache payload: " +
                                           parsed.status().message());
      }
      done(std::move(response));
      return Status::OK();
    }
    CacheMissCounter()->Increment();
  }

  Pending pending;
  pending.request = request;
  pending.assets = std::move(assets);
  pending.done = std::move(done);
  pending.admit_seconds = epoch_.ElapsedSeconds();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      return Status::FailedPrecondition("service is stopped");
    }
    if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
      if (!blocking) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        RejectedCounter()->Increment();
        return OverloadedStatus();
      }
      queue_not_full_.wait(lock, [this] {
        return stopping_ ||
               static_cast<int64_t>(queue_.size()) < options_.queue_capacity;
      });
      if (stopping_) {
        return Status::FailedPrecondition("service is stopped");
      }
    }
    queue_.push_back(std::move(pending));
    QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  AdmittedCounter()->Increment();
  queue_not_empty_.notify_one();
  return Status::OK();
}

void InfluenceService::SchedulerLoop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping and fully drained
      const size_t take = std::min<size_t>(
          queue_.size(), static_cast<size_t>(options_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
    queue_not_full_.notify_all();
    RunBatch(&batch);
  }
}

void InfluenceService::RunBatch(std::vector<Pending>* batch) {
  obs::TraceSpan span("serve.batch");
  batches_.fetch_add(1, std::memory_order_relaxed);
  UpdateMax(&max_batch_size_, batch->size());
  BatchSizeHistogram()->Observe(static_cast<double>(batch->size()));

  // One queue batch fans out across the pool; each request is an
  // independent pure function of (assets, request), so the partition
  // cannot affect any response.
  GlobalThreadPool().ParallelFor(batch->size(), [&](size_t i) {
    Pending& pending = (*batch)[i];
    ServeResponse response = pending.request.op == RequestOp::kAdmin
                                 ? ExecuteAdmin(pending.request)
                                 : Compute(*pending.assets, pending.request);
    if (response.status.ok() && IsCacheable(pending.request)) {
      cache_.Insert(CacheKey{pending.assets->fingerprint(),
                             RequestDigest(pending.request)},
                    response.payload.Dump());
    }
    LatencyHistogram()->Observe(epoch_.ElapsedSeconds() -
                                pending.admit_seconds);
    completed_.fetch_add(1, std::memory_order_relaxed);
    CompletedCounter()->Increment();
    if (!response.status.ok()) ErrorCounter()->Increment();
    pending.done(std::move(response));
  });
}

ServeResponse InfluenceService::Execute(const ServeRequest& request) {
  ServeResponse response;
  response.id = request.id;
  response.status = request.Validate();
  if (!response.status.ok()) return response;

  const std::shared_ptr<const ServingAssets> assets = this->assets();
  const bool cacheable = IsCacheable(request);
  const CacheKey key{assets->fingerprint(), RequestDigest(request)};
  if (cacheable) {
    std::string payload;
    if (cache_.Lookup(key, &payload)) {
      CacheHitCounter()->Increment();
      Result<JsonValue> parsed = JsonValue::Parse(payload);
      if (parsed.ok()) {
        response.payload = std::move(parsed).value();
        response.cached = true;
      } else {
        response.status = Status::Internal("corrupt cache payload: " +
                                           parsed.status().message());
      }
      return response;
    }
    CacheMissCounter()->Increment();
  }

  const double start = epoch_.ElapsedSeconds();
  response = request.op == RequestOp::kAdmin ? ExecuteAdmin(request)
                                             : Compute(*assets, request);
  if (response.status.ok() && cacheable) {
    cache_.Insert(key, response.payload.Dump());
  }
  LatencyHistogram()->Observe(epoch_.ElapsedSeconds() - start);
  completed_.fetch_add(1, std::memory_order_relaxed);
  CompletedCounter()->Increment();
  if (!response.status.ok()) ErrorCounter()->Increment();
  return response;
}

ServeResponse InfluenceService::ExecuteAdmin(const ServeRequest& request) {
  obs::TraceSpan span("serve.admin");
  ServeResponse response;
  response.id = request.id;
  if (!assets_factory_) {
    swap_errors_.fetch_add(1, std::memory_order_relaxed);
    SwapErrorCounter()->Increment();
    response.status = Status::FailedPrecondition(
        "this server has no swap factory installed; admin swap is "
        "unavailable");
    return response;
  }
  const uint64_t old_fingerprint = assets()->fingerprint();
  Result<std::shared_ptr<const ServingAssets>> next = assets_factory_(request);
  if (!next.ok()) {
    swap_errors_.fetch_add(1, std::memory_order_relaxed);
    SwapErrorCounter()->Increment();
    response.status = next.status();
    return response;
  }
  response.status = SwapAssets(std::move(next).value());
  if (!response.status.ok()) return response;

  const std::shared_ptr<const ServingAssets> current = assets();
  response.payload.Set("op", JsonValue::Str("admin"));
  response.payload.Set("action", JsonValue::Str("swap"));
  response.payload.Set("old_fingerprint",
                       JsonValue::Str(FingerprintHex(old_fingerprint)));
  response.payload.Set("fingerprint",
                       JsonValue::Str(FingerprintHex(current->fingerprint())));
  response.payload.Set(
      "graph_fingerprint",
      JsonValue::Str(FingerprintHex(current->graph_fingerprint())));
  response.payload.Set("model", JsonValue::Bool(current->has_model()));
  response.payload.Set("sketch",
                       JsonValue::Bool(current->sketch() != nullptr));
  return response;
}

Result<Tensor> InfluenceService::SubgraphScores(const ServingAssets& assets,
                                                const Subgraph& sub) {
  if (!assets.has_model()) {
    return Status::FailedPrecondition(
        "service was created without a model; influence scores and "
        "method=model top-k need --model");
  }
  obs::TraceSpan span("serve.subgraph_forward");
  // Features are salted by the nodes' global ids, so a node's feature row
  // — and therefore its score — does not depend on which other nodes the
  // request packed into the subgraph's id space.
  Tensor out;
  PRIVIM_RETURN_NOT_OK(
      assets.engine()->ForwardGraph(sub.local, &out, &sub.global_ids));
  assets.CountFusedForward();
  return out;
}

Result<SeedSelectionResult> InfluenceService::CelfTopK(
    const ServingAssets& assets, const ServeRequest& request) {
  if (HasUnitWeights(assets.graph())) {
    DeterministicCoverageOracle oracle(assets.graph(), request.steps);
    return CelfGreedy(oracle, request.k);
  }
  IcOptions mc;
  mc.max_steps = request.steps;
  mc.num_simulations = request.simulations;
  MonteCarloIcOracle oracle(assets.graph(), mc, request.seed);
  return CelfGreedy(oracle, request.k);
}

ServeResponse InfluenceService::Compute(const ServingAssets& assets,
                                        const ServeRequest& request) {
  obs::TraceSpan span("serve.request");
  ServeResponse response;
  response.id = request.id;
  const Graph& graph = assets.graph();

  // Graph-dependent validation shared by the ops.
  const int64_t n = graph.num_nodes();
  for (const NodeId v : request.nodes) {
    if (v < 0 || v >= n) {
      response.status = Status::OutOfRange(
          "node id " + std::to_string(v) + " out of range [0, " +
          std::to_string(n) + ")");
      return response;
    }
  }
  for (const NodeId v : request.seeds) {
    if (v < 0 || v >= n) {
      response.status = Status::OutOfRange(
          "seed id " + std::to_string(v) + " out of range [0, " +
          std::to_string(n) + ")");
      return response;
    }
  }
  for (const NodeId v : request.subgraph) {
    if (v < 0 || v >= n) {
      response.status = Status::OutOfRange(
          "subgraph node id " + std::to_string(v) + " out of range [0, " +
          std::to_string(n) + ")");
      return response;
    }
  }

  switch (request.op) {
    case RequestOp::kInfo: {
      // The capability handshake: everything a client needs to decide what
      // traffic this server can take, including the exact identity of the
      // snapshot it would be served from.
      response.payload.Set("op", JsonValue::Str("info"));
      response.payload.Set("protocol", JsonValue::Int(kProtocolVersion));
      response.payload.Set(
          "ops", StringArray({"influence", "topk", "spread", "info",
                              "admin"}));
      response.payload.Set("methods",
                           StringArray({"model", "celf", "ris", "sketch"}));
      response.payload.Set(
          "fingerprint", JsonValue::Str(FingerprintHex(assets.fingerprint())));
      response.payload.Set(
          "graph_fingerprint",
          JsonValue::Str(FingerprintHex(assets.graph_fingerprint())));
      response.payload.Set("nodes", JsonValue::Int(n));
      response.payload.Set("model", JsonValue::Bool(assets.has_model()));
      response.payload.Set("sketch",
                           JsonValue::Bool(assets.sketch() != nullptr));
      response.payload.Set("engine", JsonValue::Str("fused"));
      return response;
    }

    case RequestOp::kAdmin: {
      // Admin requests mutate the service; they are routed to ExecuteAdmin
      // by the execution paths and can never reach this pure function.
      response.status = Status::Internal("admin request reached Compute");
      return response;
    }

    case RequestOp::kInfluence: {
      if (!request.subgraph.empty()) {
        Result<Subgraph> sub = InducedSubgraph(graph, request.subgraph);
        if (!sub.ok()) {
          response.status = sub.status();
          return response;
        }
        Result<Tensor> scores = SubgraphScores(assets, sub.value());
        if (!scores.ok()) {
          response.status = scores.status();
          return response;
        }
        JsonValue score_array = JsonValue::Array();
        for (int64_t v = 0; v < sub->num_nodes(); ++v) {
          score_array.Append(
              JsonValue::Number(static_cast<double>(scores->at(v, 0))));
        }
        response.payload.Set("op", JsonValue::Str("influence"));
        response.payload.Set("nodes", NodeArray(sub->global_ids));
        response.payload.Set("scores", std::move(score_array));
        return response;
      }
      Result<Tensor> scores = assets.Scores();
      if (!scores.ok()) {
        response.status = scores.status();
        return response;
      }
      std::vector<NodeId> nodes = request.nodes;
      if (nodes.empty()) {
        nodes.resize(static_cast<size_t>(n));
        for (int64_t v = 0; v < n; ++v) {
          nodes[static_cast<size_t>(v)] = static_cast<NodeId>(v);
        }
      }
      JsonValue score_array = JsonValue::Array();
      for (const NodeId v : nodes) {
        score_array.Append(
            JsonValue::Number(static_cast<double>(scores->at(v, 0))));
      }
      response.payload.Set("op", JsonValue::Str("influence"));
      response.payload.Set("nodes", NodeArray(nodes));
      response.payload.Set("scores", std::move(score_array));
      return response;
    }

    case RequestOp::kTopK: {
      response.payload.Set("op", JsonValue::Str("topk"));
      response.payload.Set("method",
                           JsonValue::Str(TopKMethodToString(request.method)));
      switch (request.method) {
        case TopKMethod::kModel: {
          Result<Tensor> scores = assets.Scores();
          if (!scores.ok()) {
            response.status = scores.status();
            return response;
          }
          response.payload.Set("seeds",
                               NodeArray(TopKSeeds(scores.value(),
                                                   request.k)));
          return response;
        }
        case TopKMethod::kCelf: {
          Result<SeedSelectionResult> result = CelfTopK(assets, request);
          if (!result.ok()) {
            response.status = result.status();
            return response;
          }
          response.payload.Set("seeds", NodeArray(result->seeds));
          response.payload.Set("spread", JsonValue::Number(result->spread));
          response.payload.Set("evaluations",
                               JsonValue::Int(result->evaluations));
          return response;
        }
        case TopKMethod::kSketch: {
          // Serve from the index only when the snapshot has one AND it was
          // built with the step bound the request asks about; anything else
          // takes the counted CELF fallback below. Either path emits
          // exactly {"seeds", "spread"} — no "evaluations" — so on a
          // unit-weight graph the response bytes are identical with or
          // without an index (the sweep is bit-identical to CELF there;
          // tests pin this).
          if (assets.sketch() != nullptr &&
              assets.sketch()->max_steps() == request.steps) {
            Result<SketchTopKResult> result =
                assets.sketch()->TopK(request.k);
            if (!result.ok()) {
              response.status = result.status();
              return response;
            }
            sketch_hits_.fetch_add(1, std::memory_order_relaxed);
            SketchServeCounter()->Increment();
            response.payload.Set("seeds", NodeArray(result->seeds));
            response.payload.Set("spread", JsonValue::Number(result->spread));
            return response;
          }
          sketch_fallbacks_.fetch_add(1, std::memory_order_relaxed);
          SketchFallbackCounter()->Increment();
          Result<SeedSelectionResult> result = CelfTopK(assets, request);
          if (!result.ok()) {
            response.status = result.status();
            return response;
          }
          response.payload.Set("seeds", NodeArray(result->seeds));
          response.payload.Set("spread", JsonValue::Number(result->spread));
          return response;
        }
        case TopKMethod::kRis: {
          RisOptions ris;
          ris.num_rr_sets = request.rr_sets;
          ris.max_steps = request.steps;
          Rng rng(request.seed);
          Result<RisResult> result =
              RisSeedSelection(graph, request.k, ris, &rng);
          if (!result.ok()) {
            response.status = result.status();
            return response;
          }
          response.payload.Set("seeds", NodeArray(result->seeds));
          response.payload.Set("spread",
                               JsonValue::Number(result->estimated_spread));
          return response;
        }
      }
      response.status = Status::Internal("unreachable topk method");
      return response;
    }

    case RequestOp::kSpread: {
      response.payload.Set("op", JsonValue::Str("spread"));
      if (request.simulations == 0) {
        if (!HasUnitWeights(graph)) {
          response.status = Status::InvalidArgument(
              "simulations=0 selects the exact unit-weight path, but the "
              "graph has non-unit arc weights");
          return response;
        }
        response.payload.Set(
            "spread",
            JsonValue::Int(DeterministicIcSpread(graph, request.seeds,
                                                 request.steps)));
        response.payload.Set("exact", JsonValue::Bool(true));
        return response;
      }
      IcOptions mc;
      mc.max_steps = request.steps;
      mc.num_simulations = request.simulations;
      Rng rng(request.seed);
      response.payload.Set(
          "spread", JsonValue::Number(EstimateIcSpread(graph, request.seeds,
                                                       mc, &rng)));
      response.payload.Set("exact", JsonValue::Bool(false));
      return response;
    }
  }
  response.status = Status::Internal("unreachable request op");
  return response;
}

ServiceStats InfluenceService::GetStats() const {
  ServiceStats stats;
  const std::shared_ptr<const ServingAssets> current = assets();
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch_size = max_batch_size_.load(std::memory_order_relaxed);
  stats.fused_forwards =
      fused_forwards_base_.load(std::memory_order_relaxed) +
      current->fused_forwards();
  stats.sketch_hits = sketch_hits_.load(std::memory_order_relaxed);
  stats.sketch_fallbacks = sketch_fallbacks_.load(std::memory_order_relaxed);
  stats.sketch_active = current->sketch() != nullptr;
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  stats.swap_errors = swap_errors_.load(std::memory_order_relaxed);
  stats.fingerprint = current->fingerprint();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queue_depth = static_cast<int64_t>(queue_.size());
  }
  return stats;
}

}  // namespace serve
}  // namespace privim
