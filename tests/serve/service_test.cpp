// InfluenceService engine tests: queue admission, batch coalescing, cache
// behavior and the bit-identical-at-any-thread-count guarantee.

#include "privim/serve/service.h"

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/gnn/models.h"
#include "privim/nn/ops.h"
#include "privim/serve/assets.h"
#include "privim/serve/request.h"

namespace privim {
namespace serve {
namespace {

/// Directed 8-node ring with two chords: small enough to reason about,
/// asymmetric enough that top-k orderings are non-trivial.
Graph TestGraph() {
  GraphBuilder builder(8);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_TRUE(builder.AddEdge(v, (v + 1) % 8).ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 4).ok());
  EXPECT_TRUE(builder.AddEdge(2, 6).ok());
  return builder.Build().value();
}

std::shared_ptr<const GnnModel> TestModel() {
  GnnConfig config;
  config.kind = GnnKind::kGcn;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  Rng rng(7);
  return std::shared_ptr<const GnnModel>(
      CreateGnnModel(config, &rng).value().release());
}

std::unique_ptr<InfluenceService> MakeService(
    const ServeOptions& options, bool with_model = true) {
  return InfluenceService::Create(TestGraph(),
                                  with_model ? TestModel() : nullptr,
                                  options)
      .value();
}

ServeRequest Request(const std::string& json) {
  return ParseServeRequest(json).value();
}

TEST(ServeOptionsTest, ValidateCatchesBadConfigurations) {
  ServeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.queue_capacity = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions();
  options.max_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions();
  options.max_batch = options.queue_capacity + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions();
  options.cache_capacity = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions();
  options.cache_shards = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServiceTest, CreateRejectsEmptyGraphAndBadOptions) {
  ServeOptions options;
  EXPECT_FALSE(
      InfluenceService::Create(Graph(), nullptr, options).ok());
  options.queue_capacity = 0;
  EXPECT_FALSE(
      InfluenceService::Create(TestGraph(), nullptr, options).ok());
}

TEST(ServiceTest, ExecuteAnswersEveryOp) {
  auto service = MakeService(ServeOptions());
  const ServeResponse influence = service->Execute(
      Request(R"({"id":"i","op":"influence","nodes":[0,3]})"));
  ASSERT_TRUE(influence.status.ok()) << influence.status.ToString();
  const ServeResponse topk =
      service->Execute(Request(R"({"id":"t","op":"topk","k":3})"));
  ASSERT_TRUE(topk.status.ok());
  const ServeResponse celf = service->Execute(
      Request(R"({"id":"c","op":"topk","k":3,"method":"celf"})"));
  ASSERT_TRUE(celf.status.ok());
  const ServeResponse ris = service->Execute(Request(
      R"({"id":"r","op":"topk","k":3,"method":"ris","rr_sets":200})"));
  ASSERT_TRUE(ris.status.ok());
  // Unit weights: simulations 0 takes the exact path.
  const ServeResponse spread = service->Execute(
      Request(R"({"id":"s","op":"spread","seeds":[0],"simulations":0})"));
  ASSERT_TRUE(spread.status.ok());
  // Seed 0 reaches 1 and 4 in one step: spread 3.
  EXPECT_NE(spread.ToJsonLine().find("\"spread\":3"), std::string::npos)
      << spread.ToJsonLine();
}

TEST(ServiceTest, RisPoolPastTheSetIdWidthIsRefusedBeforeSampling) {
  // RR-set ids are 32-bit, so 2^31 sets cannot be indexed: the request is
  // an InvalidArgument before any set is sampled.
  auto service = MakeService(ServeOptions());
  const ServeResponse response = service->Execute(Request(
      R"({"id":"r","op":"topk","k":3,"method":"ris","rr_sets":2147483648})"));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("num_rr_sets"), std::string::npos)
      << response.status.ToString();
}

TEST(ServiceTest, ModelOpsFailCleanlyWithoutModel) {
  auto service = MakeService(ServeOptions(), /*with_model=*/false);
  const ServeResponse influence =
      service->Execute(Request(R"({"id":"i","op":"influence"})"));
  EXPECT_EQ(influence.status.code(), StatusCode::kFailedPrecondition);
  const ServeResponse topk =
      service->Execute(Request(R"({"id":"t","op":"topk"})"));
  EXPECT_EQ(topk.status.code(), StatusCode::kFailedPrecondition);
  // Graph-only ops keep working.
  const ServeResponse celf = service->Execute(
      Request(R"({"id":"c","op":"topk","k":2,"method":"celf"})"));
  EXPECT_TRUE(celf.status.ok()) << celf.status.ToString();
}

TEST(ServiceTest, OutOfRangeNodesAreOutOfRangeErrors) {
  auto service = MakeService(ServeOptions());
  const ServeResponse response = service->Execute(
      Request(R"({"id":"x","op":"spread","seeds":[99],"simulations":0})"));
  EXPECT_EQ(response.status.code(), StatusCode::kOutOfRange);
}

TEST(ServiceTest, TrySubmitRejectsOnFullQueueAndSubmitBlocksUntilSpace) {
  ServeOptions options;
  options.queue_capacity = 4;
  options.max_batch = 4;
  options.cache_capacity = 0;  // every request must really queue
  auto service = MakeService(options);
  // Not started yet: the queue fills deterministically.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted = service->TrySubmit(Request(
        R"({"id":"q","op":"spread","seeds":[)" + std::to_string(i) +
        R"(],"simulations":0})"));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted.value()));
  }
  auto rejected = service->TrySubmit(
      Request(R"({"id":"q5","op":"spread","seeds":[5],"simulations":0})"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->GetStats().rejected, 1u);
  EXPECT_EQ(service->GetStats().queue_depth, 4);

  // A blocking Submit parks until the scheduler drains the queue.
  std::thread blocked([&service] {
    auto submitted = service->Submit(Request(
        R"({"id":"q6","op":"spread","seeds":[6],"simulations":0})"));
    ASSERT_TRUE(submitted.ok());
    EXPECT_TRUE(submitted.value().get().status.ok());
  });
  ASSERT_TRUE(service->Start().ok());
  blocked.join();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(ServiceTest, SchedulerCoalescesQueuedRequestsIntoBatches) {
  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch = 8;
  options.cache_capacity = 0;
  auto service = MakeService(options);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    auto submitted = service->Submit(Request(
        R"({"id":"b","op":"spread","seeds":[)" + std::to_string(i % 8) +
        R"(],"simulations":0})"));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  ASSERT_TRUE(service->Start().ok());
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.completed, 24u);
  // 24 queued requests at max_batch 8 need at least 3 dispatches; a
  // correct coalescer needs far fewer than 24.
  EXPECT_GE(stats.batches, 3u);
  EXPECT_LE(stats.batches, 24u);
  EXPECT_GT(stats.max_batch_size, 1u);
  EXPECT_LE(stats.max_batch_size, 8u);
}

TEST(ServiceTest, CacheHitsSkipRecomputationAndPreserveBytes) {
  ServeOptions options;
  auto service = MakeService(options);
  ASSERT_TRUE(service->Start().ok());
  const ServeRequest request =
      Request(R"({"id":"c","op":"topk","k":3,"method":"celf"})");
  const ServeResponse first = service->Submit(request).value().get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cached);
  const ServeResponse second = service->Submit(request).value().get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.ToJsonLine(), second.ToJsonLine());
  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 1u);
}

TEST(ServiceTest, ErrorsAreNotCached) {
  auto service = MakeService(ServeOptions());
  const ServeRequest bad = Request(
      R"({"id":"x","op":"spread","seeds":[99],"simulations":0})");
  EXPECT_FALSE(service->Execute(bad).status.ok());
  EXPECT_FALSE(service->Execute(bad).cached);
  EXPECT_EQ(service->GetStats().cache_hits, 0u);
}

TEST(ServiceTest, SubmitAfterStopFailsCleanly) {
  auto service = MakeService(ServeOptions());
  ASSERT_TRUE(service->Start().ok());
  service->Stop();
  EXPECT_EQ(service
                ->Submit(Request(
                    R"({"id":"z","op":"spread","seeds":[0],"simulations":0})"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Stop is idempotent; Start after Stop is an error, not a crash.
  service->Stop();
  EXPECT_FALSE(service->Start().ok());
}

TEST(ServiceTest, StopFulfillsQueuedRequests) {
  ServeOptions options;
  options.cache_capacity = 0;
  auto service = MakeService(options);
  // Queued but never started: Stop must still resolve the future.
  auto submitted = service->Submit(
      Request(R"({"id":"d","op":"spread","seeds":[0],"simulations":0})"));
  ASSERT_TRUE(submitted.ok());
  service->Stop();
  EXPECT_TRUE(submitted.value().get().status.ok());
}

/// Runs the same mixed workload at a given pool size and returns the
/// response lines in request order.
std::vector<std::string> RunWorkload(size_t threads) {
  SetGlobalThreadPoolSize(threads);
  ServeOptions options;
  options.max_batch = 8;
  auto service = MakeService(options);
  EXPECT_TRUE(service->Start().ok());
  const std::vector<std::string> requests = {
      R"({"id":"w0","op":"influence"})",
      R"({"id":"w1","op":"topk","k":3})",
      R"({"id":"w2","op":"topk","k":3,"method":"celf"})",
      R"({"id":"w3","op":"topk","k":3,"method":"ris","rr_sets":300,"seed":9})",
      R"({"id":"w4","op":"spread","seeds":[0,2],"simulations":50,"seed":5})",
      R"({"id":"w5","op":"spread","seeds":[1],"simulations":0})",
      R"({"id":"w6","op":"influence","nodes":[7,1]})",
      R"({"id":"w7","op":"topk","k":5,"method":"ris","rr_sets":300,"seed":9})",
  };
  std::vector<std::future<ServeResponse>> futures;
  for (const std::string& request : requests) {
    auto submitted = service->Submit(Request(request));
    EXPECT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  std::vector<std::string> lines;
  for (auto& future : futures) {
    lines.push_back(future.get().ToJsonLine());
  }
  service->Stop();
  SetGlobalThreadPoolSize(0);
  return lines;
}

TEST(ServiceTest, ResponsesAreBitIdenticalAtOneFourAndEightThreads) {
  const std::vector<std::string> serial = RunWorkload(1);
  for (const std::string& line : serial) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  EXPECT_EQ(RunWorkload(4), serial);
  EXPECT_EQ(RunWorkload(8), serial);
}

TEST(ServiceTest, ConcurrentProducersGetConsistentResponses) {
  ServeOptions options;
  options.queue_capacity = 32;
  options.max_batch = 8;
  auto service = MakeService(options);
  ASSERT_TRUE(service->Start().ok());
  // Every producer submits the same deterministic request set; all must
  // observe identical bytes regardless of batch/cache interleaving.
  const ServeResponse expected = service->Execute(
      Request(R"({"id":"p","op":"spread","seeds":[0,3],"simulations":0})"));
  ASSERT_TRUE(expected.status.ok());
  std::vector<std::thread> producers;
  for (int t = 0; t < 6; ++t) {
    producers.emplace_back([&service, &expected] {
      for (int i = 0; i < 20; ++i) {
        auto submitted = service->Submit(Request(
            R"({"id":"p","op":"spread","seeds":[0,3],"simulations":0})"));
        ASSERT_TRUE(submitted.ok());
        EXPECT_EQ(submitted.value().get().ToJsonLine(),
                  expected.ToJsonLine());
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  // The Execute pre-fill plus any batch-computed duplicates completed;
  // everything else resolved from the cache without queueing.
  const ServiceStats stats = service->GetStats();
  EXPECT_GE(stats.completed, 1u);
  EXPECT_EQ(stats.completed + stats.cache_hits, 1u + 6u * 20u);
}

// --- Inference engine selection, subgraph requests and fallback ----------

std::unique_ptr<InfluenceService> MakeServiceWithEngine(
    InferEngineKind kind) {
  ServeOptions options;
  options.infer_engine = kind;
  return MakeService(options);
}

TEST(ServiceTest, InferEngineKindParsesAndPrints) {
  EXPECT_EQ(InferEngineKindFromString("fused").value(),
            InferEngineKind::kFused);
  EXPECT_EQ(InferEngineKindFromString("tape").value(),
            InferEngineKind::kTape);
  EXPECT_EQ(InferEngineKindFromString("jit").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_STREQ(InferEngineKindToString(InferEngineKind::kFused), "fused");
  EXPECT_STREQ(InferEngineKindToString(InferEngineKind::kTape), "tape");
}

TEST(ServiceTest, FusedAndTapeEnginesProduceByteIdenticalResponses) {
  auto fused = MakeServiceWithEngine(InferEngineKind::kFused);
  auto tape = MakeServiceWithEngine(InferEngineKind::kTape);
  ASSERT_TRUE(fused->fused_active());
  ASSERT_FALSE(tape->fused_active());
  // Every model-driven request shape: whole-graph influence, filtered
  // influence, subgraph influence, model top-k.
  const char* requests[] = {
      R"({"id":"e0","op":"influence"})",
      R"({"id":"e1","op":"influence","nodes":[7,1]})",
      R"({"id":"e2","op":"influence","subgraph":[4,5,6,4]})",
      R"({"id":"e3","op":"topk","k":3,"method":"model"})",
  };
  for (const char* request : requests) {
    const ServeResponse from_fused = fused->Execute(Request(request));
    const ServeResponse from_tape = tape->Execute(Request(request));
    ASSERT_TRUE(from_fused.status.ok()) << request << ": "
                                        << from_fused.status.message();
    EXPECT_EQ(from_fused.ToJsonLine(), from_tape.ToJsonLine()) << request;
  }
  EXPECT_GT(fused->GetStats().fused_forwards, 0u);
  EXPECT_EQ(fused->GetStats().infer_fallbacks, 0u);
  EXPECT_EQ(tape->GetStats().fused_forwards, 0u);
  EXPECT_TRUE(fused->GetStats().fused_active);
  EXPECT_FALSE(tape->GetStats().fused_active);
}

TEST(ServiceTest, SubgraphInfluenceReportsDedupedGlobalIds) {
  auto service = MakeServiceWithEngine(InferEngineKind::kFused);
  const ServeResponse response = service->Execute(
      Request(R"({"id":"s","op":"influence","subgraph":[5,2,5,7]})"));
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  const std::string line = response.ToJsonLine();
  EXPECT_NE(line.find(R"("nodes":[5,2,7])"), std::string::npos) << line;

  const ServeResponse bad = service->Execute(
      Request(R"({"id":"s","op":"influence","subgraph":[99]})"));
  EXPECT_EQ(bad.status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(bad.status.message().find("subgraph node id 99"),
            std::string::npos);
}

TEST(ServiceTest, BatchedSubgraphResponsesMatchSoloExecution) {
  // Queue many subgraph requests before Start so the scheduler coalesces
  // them into batches the fused engine stacks block-diagonally; every
  // response must match a solo Execute byte-for-byte.
  ServeOptions options;
  options.queue_capacity = 64;
  options.max_batch = 16;
  options.cache_capacity = 0;
  options.infer_engine = InferEngineKind::kFused;
  auto service = MakeService(options);
  auto reference = MakeServiceWithEngine(InferEngineKind::kTape);

  std::vector<std::string> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(R"({"id":"g","op":"influence","subgraph":[)" +
                       std::to_string(i % 8) + "," +
                       std::to_string((i + 3) % 8) + "," +
                       std::to_string((i + 5) % 8) + "]}");
  }
  std::vector<std::future<ServeResponse>> futures;
  for (const std::string& request : requests) {
    auto submitted = service->Submit(Request(request));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  ASSERT_TRUE(service->Start().ok());
  for (size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse batched = futures[i].get();
    ASSERT_TRUE(batched.status.ok()) << batched.status.message();
    EXPECT_EQ(batched.ToJsonLine(),
              reference->Execute(Request(requests[i])).ToJsonLine())
        << requests[i];
  }
  EXPECT_GT(service->GetStats().fused_forwards, 0u);
}

/// GCN parameter layout with a tanh head: compiles structurally but the
/// probe forward diverges, so the service must fall back to the tape.
class TanhHeadGcn : public GnnModel {
 public:
  explicit TanhHeadGcn(const GnnModel& base) : GnnModel(base.config()) {
    for (const Variable& parameter : base.parameters()) {
      params_.push_back(Variable(parameter.value()));
    }
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    Variable h = features;
    for (int64_t l = 0; l < config_.num_layers; ++l) {
      h = Relu(AddRowBroadcast(
          MatMul(SpMM(ctx.gcn_adj, h), params_[2 + 2 * l]),
          params_[2 + 2 * l + 1]));
    }
    return Tanh(AddRowBroadcast(MatMul(h, params_[0]), params_[1]));
  }
};

TEST(ServiceTest, UnsupportedModelFallsBackToTapeWithCounter) {
  const auto exotic = std::make_shared<const TanhHeadGcn>(*TestModel());
  ServeOptions options;  // fused is the default
  auto service =
      InfluenceService::Create(TestGraph(), exotic, options).value();
  EXPECT_FALSE(service->fused_active());
  EXPECT_FALSE(service->infer_fallback_reason().empty());
  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.infer_fallbacks, 1u);
  EXPECT_FALSE(stats.fused_active);

  // The fallback still serves model requests — through the tape — and a
  // service explicitly configured for tape agrees byte-for-byte.
  options.infer_engine = InferEngineKind::kTape;
  auto reference =
      InfluenceService::Create(TestGraph(), exotic, options).value();
  EXPECT_EQ(reference->GetStats().infer_fallbacks, 0u);
  for (const char* request :
       {R"({"id":"f0","op":"influence"})",
        R"({"id":"f1","op":"influence","subgraph":[1,2,3]})"}) {
    const ServeResponse fallback = service->Execute(Request(request));
    ASSERT_TRUE(fallback.status.ok()) << fallback.status.message();
    EXPECT_EQ(fallback.ToJsonLine(),
              reference->Execute(Request(request)).ToJsonLine());
  }
  EXPECT_EQ(service->GetStats().fused_forwards, 0u);
}

// --- Load shedding: both front ends must speak the same overload bytes.
// The translation lives in serve/request.* (OverloadedStatus /
// OverloadedResponse / QueueFullError); these tests pin the service-level
// behavior so the two call sites cannot drift apart again. -----------------

TEST(ServiceTest, OverloadTranslationIsIdenticalAcrossFrontEnds) {
  ServeOptions options;
  options.queue_capacity = 2;
  options.max_batch = 2;
  options.cache_capacity = 0;
  auto service = MakeService(options);
  // Not started: the queue fills deterministically.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service
                    ->TrySubmit(Request(
                        R"({"id":"q","op":"spread","seeds":[)" +
                        std::to_string(i) + R"(],"simulations":0})"))
                    .ok());
  }
  const ServeRequest overflow = Request(
      R"({"id":"over","op":"spread","seeds":[7],"simulations":0})");

  // Callback front end (TCP): the raw overload signal.
  const Status async = service->SubmitAsync(
      overflow, [](ServeResponse) { FAIL() << "shed request completed"; });
  EXPECT_TRUE(IsOverloaded(async));
  EXPECT_EQ(async.code(), OverloadedStatus().code());
  EXPECT_EQ(async.message(), OverloadedStatus().message());

  // Future front end (stdin/CLI): the historical queue-full translation.
  const Status try_submit = service->TrySubmit(overflow).status();
  EXPECT_EQ(try_submit.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(try_submit.message(),
            QueueFullError(options.queue_capacity).message());

  // Both signals render the same client-visible JSON when wrapped the way
  // each front end wraps them: the TCP server emits OverloadedResponse
  // directly, and a response built from the async status matches it.
  ServeResponse from_async;
  from_async.id = overflow.id;
  from_async.status = async;
  EXPECT_EQ(from_async.ToJsonLine(),
            OverloadedResponse(overflow.id).ToJsonLine());

  service->Stop();
}

// --- ServingAssets snapshots: the info handshake, hot swap, and the
// fingerprint-keyed cache that makes stale hits impossible. ----------------

std::shared_ptr<const ServingAssets> Snapshot(bool with_model) {
  return ServingAssets::Build(TestGraph(),
                              with_model ? TestModel() : nullptr, nullptr,
                              InferEngineKind::kFused)
      .value();
}

TEST(ServiceSwapTest, InfoReportsCapabilitiesAndSnapshotIdentity) {
  auto service = MakeService(ServeOptions());
  const ServeResponse info =
      service->Execute(Request(R"({"id":"i","op":"info"})"));
  ASSERT_TRUE(info.status.ok()) << info.status.ToString();
  const std::string line = info.ToJsonLine();
  EXPECT_NE(line.find(R"("protocol":1)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("ops":["influence","topk","spread","info","admin"])"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(R"("methods":["model","celf","ris","sketch"])"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(R"("engine":"fused")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("nodes":8)"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("model":true)"), std::string::npos) << line;
  // The advertised fingerprint is the served snapshot's.
  EXPECT_NE(line.find(FingerprintHex(service->fingerprint())),
            std::string::npos)
      << line;
}

TEST(ServiceSwapTest, SwapRepointsTheSnapshotWhileRunning) {
  auto service = MakeService(ServeOptions());
  ASSERT_TRUE(service->Start().ok());
  const uint64_t before = service->fingerprint();
  EXPECT_TRUE(service->has_model());

  ASSERT_TRUE(service->SwapAssets(Snapshot(/*with_model=*/false)).ok());
  EXPECT_NE(service->fingerprint(), before);
  EXPECT_FALSE(service->has_model());

  // New requests are answered from the new snapshot: model ops now fail.
  Result<std::future<ServeResponse>> pending =
      service->Submit(Request(R"({"id":"m","op":"topk","k":3})"));
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->get().status.code(), StatusCode::kFailedPrecondition);
  service->Stop();

  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.swap_errors, 0u);
  EXPECT_EQ(stats.fingerprint, service->fingerprint());
}

TEST(ServiceSwapTest, FingerprintsAreContentDerivedAndCacheKeysOnThem) {
  // One service, three snapshots: A (model), B (no model), A' (rebuilt
  // from the same content as A). The cache keys on the content-derived
  // snapshot fingerprint, so A's entries go quiet under B — no stale hit
  // is possible — and come back under A'.
  auto service = MakeService(ServeOptions());
  const ServeRequest query =
      Request(R"({"id":"c","op":"topk","k":3,"method":"celf"})");

  const ServeResponse first = service->Execute(query);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(service->Execute(query).cached);

  // B: same graph, no model — a different fingerprint, so the same query
  // recomputes (celf is model-free: same payload, different cache slot).
  const uint64_t fingerprint_a = service->fingerprint();
  ASSERT_TRUE(service->SwapAssets(Snapshot(/*with_model=*/false)).ok());
  EXPECT_NE(service->fingerprint(), fingerprint_a);
  const ServeResponse under_b = service->Execute(query);
  ASSERT_TRUE(under_b.status.ok());
  EXPECT_FALSE(under_b.cached);
  EXPECT_EQ(under_b.ToJsonLine(), first.ToJsonLine());

  // A': rebuilt from identical content — the fingerprint matches A
  // exactly, so A's cache entries serve again without recomputation.
  ASSERT_TRUE(service->SwapAssets(Snapshot(/*with_model=*/true)).ok());
  EXPECT_EQ(service->fingerprint(), fingerprint_a);
  EXPECT_TRUE(service->Execute(query).cached);
}

TEST(ServiceSwapTest, AdminWithoutFactoryIsARefusedSwap) {
  auto service = MakeService(ServeOptions());
  const ServeResponse response = service->Execute(
      Request(R"({"id":"a","op":"admin","action":"swap"})"));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(response.status.message().find("no swap factory"),
            std::string::npos);
  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.swap_errors, 1u);
}

TEST(ServiceSwapTest, AdminSwapRunsThroughTheFactoryAndIsNeverCached) {
  auto service = MakeService(ServeOptions());
  int factory_calls = 0;
  ASSERT_TRUE(service
                  ->SetAssetsFactory(
                      [&factory_calls](const ServeRequest& request)
                          -> Result<std::shared_ptr<const ServingAssets>> {
                        ++factory_calls;
                        if (request.swap_model == "missing.model") {
                          return Status::IOError("cannot open missing.model");
                        }
                        return Snapshot(/*with_model=*/false);
                      })
                  .ok());
  const uint64_t before = service->fingerprint();

  const ServeRequest swap =
      Request(R"({"id":"a","op":"admin","action":"swap"})");
  const ServeResponse applied = service->Execute(swap);
  ASSERT_TRUE(applied.status.ok()) << applied.status.ToString();
  EXPECT_FALSE(applied.cached);
  const std::string line = applied.ToJsonLine();
  EXPECT_NE(line.find(R"("old_fingerprint":")" + FingerprintHex(before)),
            std::string::npos)
      << line;
  EXPECT_NE(
      line.find(R"("fingerprint":")" + FingerprintHex(service->fingerprint())),
      std::string::npos)
      << line;
  EXPECT_NE(line.find(R"("model":false)"), std::string::npos) << line;

  // Identical admin requests execute every time — never from the cache.
  EXPECT_FALSE(service->Execute(swap).cached);
  EXPECT_EQ(factory_calls, 2);

  // A factory error is a counted, reported refusal; the snapshot stays.
  const uint64_t current = service->fingerprint();
  const ServeResponse refused = service->Execute(Request(
      R"({"id":"a","op":"admin","action":"swap","model":"missing.model"})"));
  EXPECT_EQ(refused.status.code(), StatusCode::kIOError);
  EXPECT_EQ(service->fingerprint(), current);

  const ServiceStats stats = service->GetStats();
  EXPECT_EQ(stats.swaps, 2u);
  EXPECT_EQ(stats.swap_errors, 1u);
}

TEST(ServiceSwapTest, FactoryInstallsBeforeStartOnly) {
  auto service = MakeService(ServeOptions());
  ASSERT_TRUE(service->Start().ok());
  const Status late = service->SetAssetsFactory(
      [](const ServeRequest&) -> Result<std::shared_ptr<const ServingAssets>> {
        return Snapshot(false);
      });
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  service->Stop();
}

TEST(ServiceSwapTest, InFlightRequestsFinishOnTheirAdmissionSnapshot) {
  // Queue model requests against snapshot A, swap to model-free B, then
  // start the scheduler: the queued requests were admitted under A and
  // must succeed on A even though B is current by the time they execute.
  ServeOptions options;
  options.cache_capacity = 0;
  auto service = MakeService(options);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted =
        service->Submit(Request(R"({"id":"q","op":"topk","k":3})"));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  ASSERT_TRUE(service->SwapAssets(Snapshot(/*with_model=*/false)).ok());
  ASSERT_TRUE(service->Start().ok());
  for (auto& future : futures) {
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  // A request admitted after the swap sees B and fails.
  const ServeResponse after =
      service->Execute(Request(R"({"id":"q2","op":"topk","k":3})"));
  EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition);
  service->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace privim
