// Substrate microbenchmarks (google-benchmark): graph construction,
// generators, projection, sampling, sparse message passing, GNN forward
// passes, IC simulation, CELF and the RDP accountant. These quantify the
// building blocks underneath the per-figure harnesses.
//
// The BM_Mc* / BM_DpTraining* benchmarks take the pool size as their range
// argument (1 = serial baseline) and measure real time; the outputs are
// bit-identical across thread counts, so the speedup is directly the ratio
// of the Arg(1) and Arg(N) rows. --threads N / PRIVIM_THREADS sizes the
// pool for every other benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "privim/ckpt/io.h"
#include "privim/common/flags.h"
#include "privim/obs/export.h"
#include "privim/obs/trace.h"
#include "privim/common/thread_pool.h"
#include "privim/core/loss.h"
#include "privim/core/trainer.h"
#include "privim/diffusion/ic_model.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/gnn/features.h"
#include "privim/gnn/models.h"
#include "privim/graph/generators.h"
#include "privim/graph/projection.h"
#include "privim/im/celf.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/nn/arena.h"
#include "privim/nn/infer/engine.h"
#include "privim/sampling/dual_stage.h"
#include "privim/sampling/rwr_sampler.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"

namespace privim {
namespace {

Graph MakeBenchGraph(int64_t nodes, int64_t m) {
  Rng rng(42);
  Result<Graph> graph = BarabasiAlbert(nodes, m, &rng);
  return WithUniformWeights(graph.value(), 1.0f);
}

void BM_GraphBuild(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(1);
  Result<Graph> base = BarabasiAlbert(nodes, 5, &rng);
  const std::vector<Edge> edges = base->ToEdgeList();
  for (auto _ : state) {
    GraphBuilder builder(nodes);
    benchmark::DoNotOptimize(builder.AddEdges(edges));
    Result<Graph> graph = builder.Build();
    benchmark::DoNotOptimize(graph.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BarabasiAlbertGenerate(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  uint64_t seed = 7;
  for (auto _ : state) {
    Rng rng(seed++);
    Result<Graph> graph = BarabasiAlbert(nodes, 5, &rng);
    benchmark::DoNotOptimize(graph->num_arcs());
  }
}
BENCHMARK(BM_BarabasiAlbertGenerate)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Partitioned substrate: million-node generation and sampling ---------
//
// BM_GenerateBa / BM_GenerateSbm run the parallel generators (sharded CSR
// assembly on the global pool); BM_RwrSample measures RWR subgraph
// extraction over sharded visit maps on a pre-built graph; and
// BM_LargeGraphPipeline is the end-to-end generate -> fingerprint ->
// sample chain that tools/privim_scale.cpp drives. All outputs are
// bit-identical at every thread count, so the rows are pure wall-clock.
// The 1M rows carry hand-set budgets in bench/baseline.json that CI
// enforces; the 10M rows are advisory and excluded from the CI run
// (--benchmark_filter=-/10000000) to keep the smoke job short.

void BM_GenerateBa(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  uint64_t seed = 7;
  for (auto _ : state) {
    Result<Graph> graph = BarabasiAlbertParallel(nodes, 8, seed++);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(graph->num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_GenerateBa)->Arg(1000000)->Arg(10000000)->UseRealTime();

void BM_GenerateSbm(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const int64_t blocks = 64;
  // ~8 within-block arcs per node; p_out is divided by ~n (not by
  // block_size) because each node sees (blocks - 1)x more cross-block
  // candidates than within-block ones.
  const double p_in =
      8.0 / (static_cast<double>(nodes) / static_cast<double>(blocks));
  uint64_t seed = 11;
  for (auto _ : state) {
    Result<Graph> graph =
        StochasticBlockModel(nodes, blocks, p_in, p_in / 1024.0, seed++);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(graph->num_arcs());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_GenerateSbm)->Arg(1000000)->Arg(10000000)->UseRealTime();

void BM_RwrSample(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Result<Graph> graph = BarabasiAlbertParallel(nodes, 8, 7);
  if (!graph.ok()) {
    state.SkipWithError(graph.status().ToString().c_str());
    return;
  }
  RwrSamplerOptions options;
  options.subgraph_size = 25;
  options.sampling_rate = 64.0 / static_cast<double>(nodes);
  uint64_t seed = 13;
  for (auto _ : state) {
    Rng rng(seed++);
    Result<SubgraphContainer> container =
        ExtractSubgraphsRwr(graph.value(), options, &rng);
    if (!container.ok()) {
      state.SkipWithError(container.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(container->size());
  }
}
BENCHMARK(BM_RwrSample)->Arg(1000000)->Arg(10000000)->UseRealTime();

void BM_LargeGraphPipeline(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  RwrSamplerOptions options;
  options.subgraph_size = 25;
  options.sampling_rate = 64.0 / static_cast<double>(nodes);
  uint64_t seed = 17;
  for (auto _ : state) {
    Result<Graph> graph = BarabasiAlbertParallel(nodes, 8, seed++);
    if (!graph.ok()) {
      state.SkipWithError(graph.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(ckpt::FingerprintGraph(graph.value()));
    Rng rng(seed);
    Result<SubgraphContainer> container =
        ExtractSubgraphsRwr(graph.value(), options, &rng);
    if (!container.ok()) {
      state.SkipWithError(container.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(container->size());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_LargeGraphPipeline)->Arg(1000000)->Arg(10000000)->UseRealTime();

void BM_ThetaProjection(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 8);
  uint64_t seed = 3;
  for (auto _ : state) {
    Rng rng(seed++);
    Result<Graph> projected = ProjectInDegree(graph, 10, &rng);
    benchmark::DoNotOptimize(projected->num_arcs());
  }
}
BENCHMARK(BM_ThetaProjection)->Arg(10000)->Arg(100000);

void BM_RwrExtraction(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  RwrSamplerOptions options;
  options.subgraph_size = 25;
  options.sampling_rate =
      std::min(1.0, 256.0 / static_cast<double>(graph.num_nodes()));
  uint64_t seed = 11;
  for (auto _ : state) {
    Rng rng(seed++);
    Result<SubgraphContainer> container =
        ExtractSubgraphsRwr(graph, options, &rng);
    benchmark::DoNotOptimize(container->size());
  }
}
BENCHMARK(BM_RwrExtraction)->Arg(10000)->Arg(100000);

void BM_DualStageSampling(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  DualStageOptions options;
  options.stage1.subgraph_size = 25;
  options.stage1.sampling_rate =
      std::min(1.0, 256.0 / static_cast<double>(graph.num_nodes()));
  uint64_t seed = 13;
  for (auto _ : state) {
    Rng rng(seed++);
    Result<DualStageResult> result = DualStageSampling(graph, options, &rng);
    benchmark::DoNotOptimize(result->container.size());
  }
}
BENCHMARK(BM_DualStageSampling)->Arg(10000)->Arg(100000);

void BM_GnnForward(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  const GraphContext ctx = GraphContext::Build(graph);
  GnnConfig config;
  config.kind = static_cast<GnnKind>(state.range(1));
  Rng rng(17);
  auto model = CreateGnnModel(config, &rng);
  const Tensor features = BuildNodeFeatures(graph, config.input_dim);
  for (auto _ : state) {
    Variable out = model.value()->Forward(ctx, Variable(features));
    benchmark::DoNotOptimize(out.value().Sum());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_GnnForward)
    ->Args({1000, static_cast<long>(GnnKind::kGcn)})
    ->Args({1000, static_cast<long>(GnnKind::kGrat)})
    ->Args({1000, static_cast<long>(GnnKind::kGin)})
    ->Args({10000, static_cast<long>(GnnKind::kGrat)});

// Tape-vs-fused forward pass at serving shapes (same model, same graph,
// bit-identical outputs). BM_TapeForward is the tape at its best — warm
// MemoryPools, so the loop is allocation-free — and BM_FusedForward is the
// compiled per-model program; the ratio is pure fusion/dispatch overhead.
void BM_TapeForward(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(2000, 5);
  const GraphContext ctx = GraphContext::Build(graph);
  GnnConfig config;
  config.kind = static_cast<GnnKind>(state.range(0));
  Rng rng(17);
  auto model = CreateGnnModel(config, &rng);
  const Tensor features = BuildNodeFeatures(graph, config.input_dim);
  nn::MemoryPools pools;
  for (auto _ : state) {
    Result<Variable> out = model.value()->Run(ctx, features, &pools);
    benchmark::DoNotOptimize(out->value().Sum());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_TapeForward)
    ->Arg(static_cast<long>(GnnKind::kGcn))
    ->Arg(static_cast<long>(GnnKind::kGrat));

void BM_FusedForward(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(2000, 5);
  const GraphContext ctx = GraphContext::Build(graph);
  GnnConfig config;
  config.kind = static_cast<GnnKind>(state.range(0));
  Rng rng(17);
  std::shared_ptr<const GnnModel> model(
      CreateGnnModel(config, &rng).value().release());
  auto engine = infer::InferEngine::Create(model).value();
  const Tensor features = BuildNodeFeatures(graph, config.input_dim);
  Tensor out;
  for (auto _ : state) {
    if (!engine->Forward(ctx, features, &out).ok()) {
      state.SkipWithError("fused forward failed");
      return;
    }
    benchmark::DoNotOptimize(out.Sum());
  }
  state.SetItemsProcessed(state.iterations() * graph.num_arcs());
}
BENCHMARK(BM_FusedForward)
    ->Arg(static_cast<long>(GnnKind::kGcn))
    ->Arg(static_cast<long>(GnnKind::kGrat));

void BM_InfluenceLossBackward(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(40, 4);
  const GraphContext ctx = GraphContext::Build(graph);
  GnnConfig config;
  Rng rng(19);
  auto model = CreateGnnModel(config, &rng);
  const Tensor features = BuildNodeFeatures(graph, config.input_dim);
  for (auto _ : state) {
    for (const Variable& p : model.value()->parameters()) {
      const_cast<Variable&>(p).ZeroGrad();
    }
    Result<Variable> loss =
        InfluenceLoss(*model.value(), ctx, features, InfluenceLossOptions());
    loss->Backward();
    benchmark::DoNotOptimize(
        FlattenGradients(model.value()->parameters()).size());
  }
}
BENCHMARK(BM_InfluenceLossBackward);

// The transpose-free MatMul pullback pair at training shapes: da = g * W^T
// (k-ordered dots) and dW = x^T * g (rank-1 updates), arena-pooled as in
// the trainer. Arg is the subgraph row count.
void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t d = 32;
  Rng rng(23);
  const Tensor x = Tensor::Gaussian(n, d, 1.0f, &rng);
  const Tensor w = Tensor::Gaussian(d, d, 1.0f, &rng);
  const Tensor grad = Tensor::Gaussian(n, d, 1.0f, &rng);
  nn::MemoryPools pools;
  nn::ArenaScope scope(&pools);
  for (auto _ : state) {
    Tensor da = MatMulABT(grad, w);
    Tensor dw = MatMulATB(x, grad);
    benchmark::DoNotOptimize(da.data());
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * d * d);
}
BENCHMARK(BM_MatMulBackward)->Arg(25)->Arg(256);

// SpMM forward plus the transposed-CSR backward walk over the influence
// operator of a BA graph. Arg is the node count.
void BM_SpMM(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const Graph graph = MakeBenchGraph(nodes, 5);
  const GraphContext ctx = GraphContext::Build(graph);
  Rng rng(29);
  const Tensor features = Tensor::Gaussian(nodes, 32, 1.0f, &rng);
  nn::MemoryPools pools;
  nn::ArenaScope scope(&pools);
  for (auto _ : state) {
    Variable x(features, true);
    Variable y = SpMM(ctx.influence_adj, x);
    Sum(y).Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
}
BENCHMARK(BM_SpMM)->Arg(25)->Arg(2000);

void BM_IcSimulation(benchmark::State& state) {
  Rng graph_rng(23);
  Result<Graph> base = BarabasiAlbert(state.range(0), 5, &graph_rng);
  const Graph graph = WithWeightedCascadeWeights(base.value());
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateIcOnce(graph, seeds, -1, &rng));
  }
}
BENCHMARK(BM_IcSimulation)->Arg(1000)->Arg(10000)->Arg(100000);

// Monte-Carlo spread estimation at a given pool size (range argument).
// Per-simulation RNG streams are pre-split, so every Arg produces the same
// estimate — the rows differ only in wall-clock.
void BM_McSpreadEstimation(benchmark::State& state) {
  SetGlobalThreadPoolSize(static_cast<size_t>(state.range(0)));
  Rng graph_rng(23);
  Result<Graph> base = BarabasiAlbert(10000, 5, &graph_rng);
  const Graph graph = WithWeightedCascadeWeights(base.value());
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  IcOptions options;
  options.num_simulations = 256;
  Rng rng(31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateIcSpread(graph, seeds, options, &rng));
  }
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_McSpreadEstimation)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// One DP-SGD training run (per-subgraph gradients fan out across the pool,
// fixed-order reduction) at a given pool size. Bit-identical across Args.
void BM_DpTrainingIteration(benchmark::State& state) {
  SetGlobalThreadPoolSize(static_cast<size_t>(state.range(0)));
  const Graph graph = MakeBenchGraph(2000, 5);
  RwrSamplerOptions sampler;
  sampler.subgraph_size = 25;
  sampler.sampling_rate = 0.05;
  Rng sample_rng(37);
  Result<SubgraphContainer> container =
      ExtractSubgraphsRwr(graph, sampler, &sample_rng);
  GnnConfig config;
  Rng model_rng(41);
  auto model = CreateGnnModel(config, &model_rng);
  DpSgdOptions options;
  options.batch_size = 16;
  options.iterations = 4;
  options.noise_multiplier = 1.0;
  for (auto _ : state) {
    Rng rng(43);
    Result<TrainStats> stats =
        TrainDpGnn(model.value().get(), container.value(), options, &rng);
    benchmark::DoNotOptimize(stats.ok());
  }
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_DpTrainingIteration)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Serving engine: the same 96-request stream executed one request at a
// time (Execute, Arg 0) vs submitted all at once through the batching
// scheduler (Submit, Arg 1). Responses are bit-identical between the two
// rows — the caching is disabled and every request carries its own RNG
// seed — so batched/sequential real time is directly the scheduler's
// speedup with >= 64 requests in flight.
std::vector<serve::ServeRequest> ServeBenchRequests() {
  std::vector<serve::ServeRequest> requests;
  requests.reserve(96);
  for (int i = 0; i < 96; ++i) {
    serve::ServeRequest request;
    request.id = "b";
    request.id += std::to_string(i);
    request.op = serve::RequestOp::kSpread;
    request.seeds = {static_cast<NodeId>(i % 500),
                     static_cast<NodeId>((i * 7 + 3) % 500)};
    request.simulations = 16;
    request.steps = 2;
    request.seed = static_cast<uint64_t>(1000 + i);
    requests.push_back(std::move(request));
  }
  return requests;
}

// Model-driven workload for row 3: 96 subgraph-influence requests, each a
// contiguous 256-node window. Contiguous windows of a small-world graph
// keep nearly all of their arcs under induction (unlike random node sets,
// which are arc-starved), so the GNN forward dominates: the row measures
// one compiled forward per request.
std::vector<serve::ServeRequest> ServeSubgraphRequests() {
  std::vector<serve::ServeRequest> requests;
  requests.reserve(96);
  for (int i = 0; i < 96; ++i) {
    serve::ServeRequest request;
    request.id = "s";
    request.id += std::to_string(i);
    request.op = serve::RequestOp::kInfluence;
    for (int j = 0; j < 256; ++j) {
      request.subgraph.push_back(static_cast<NodeId>((i * 18 + j) % 2000));
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

void BM_ServeThroughput(benchmark::State& state) {
  const int64_t mode = state.range(0);
  const bool batched = mode != 0;
  const bool with_model = mode == 3;
  SetGlobalThreadPoolSize(4);
  Rng graph_rng(51);
  // Rows 0/1 (spread workload): heavy-tailed BA graph. Row 3 (model
  // workload): small-world graph so the contiguous request windows stay
  // arc-dense after induction.
  Result<Graph> base = with_model ? WattsStrogatz(2000, 8, 0.05, &graph_rng)
                                  : BarabasiAlbert(2000, 5, &graph_rng);
  serve::ServeOptions options;
  options.queue_capacity = 128;  // the whole stream stays in flight
  options.max_batch = 32;
  options.cache_capacity = 0;  // force real computation every iteration
  std::shared_ptr<const GnnModel> model;
  if (with_model) {
    GnnConfig config;
    config.kind = GnnKind::kGrat;
    Rng model_rng(17);
    model.reset(CreateGnnModel(config, &model_rng).value().release());
  }
  auto service = serve::InfluenceService::Create(
                     WithWeightedCascadeWeights(base.value()), model,
                     options)
                     .value();
  if (batched && !service->Start().ok()) {
    state.SkipWithError("service failed to start");
    return;
  }
  const std::vector<serve::ServeRequest> requests =
      with_model ? ServeSubgraphRequests() : ServeBenchRequests();
  for (auto _ : state) {
    if (batched) {
      std::vector<std::future<serve::ServeResponse>> futures;
      futures.reserve(requests.size());
      for (const serve::ServeRequest& request : requests) {
        futures.push_back(std::move(service->Submit(request).value()));
      }
      for (auto& future : futures) {
        benchmark::DoNotOptimize(future.get().status.ok());
      }
    } else {
      for (const serve::ServeRequest& request : requests) {
        benchmark::DoNotOptimize(service->Execute(request).status.ok());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests.size()));
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_ServeThroughput)->Arg(0)->Arg(1)->Arg(3)->UseRealTime();

// Latency of a response served from the sharded LRU cache, measured
// against a CELF top-k request whose cold computation costs milliseconds:
// the ratio to a cold run is the cache's whole value proposition.
void BM_ServeCacheHit(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(2000, 5);
  serve::ServeOptions options;
  auto service =
      serve::InfluenceService::Create(graph, /*model=*/nullptr, options)
          .value();
  serve::ServeRequest request;
  request.id = "warm";
  request.op = serve::RequestOp::kTopK;
  request.method = serve::TopKMethod::kCelf;
  request.k = 8;
  // Warm the cache; every timed Execute below is a hit.
  if (!service->Execute(request).status.ok()) {
    state.SkipWithError("warmup request failed");
    return;
  }
  for (auto _ : state) {
    serve::ServeResponse response = service->Execute(request);
    benchmark::DoNotOptimize(response.cached);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheHit);

void BM_DeterministicCoverage(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeterministicIcSpread(graph, seeds, 1));
  }
}
BENCHMARK(BM_DeterministicCoverage)->Arg(10000)->Arg(100000);

void BM_CelfGreedy(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  DeterministicCoverageOracle oracle(graph, 1);
  // The run is deterministic, so the last timed iteration's evaluation
  // count is THE count — recomputing it after the loop would double the
  // measured work per report.
  int64_t evaluations = 0;
  for (auto _ : state) {
    Result<SeedSelectionResult> result = CelfGreedy(oracle, 25);
    benchmark::DoNotOptimize(result->spread);
    evaluations = result->evaluations;
  }
  state.counters["evals"] = static_cast<double>(evaluations);
}
BENCHMARK(BM_CelfGreedy)->Arg(10000)->Arg(50000);

// --- Top-k serving: per-request CELF vs the precomputed sketch index -----
//
// Both benches go through InfluenceService::Execute with the response
// cache disabled, so the numbers are exactly what a cache-cold top-k
// request pays at the serving layer. The sketch bench first pins that its
// selected seed set is bit-identical to CELF's and that the request really
// was answered from the index; had the service silently fallen back to
// CELF (index missing, steps mismatch), the measured time would be CELF's
// and the far tighter BM_TopK_Sketch budget in bench/baseline.json would
// fail `bench_compare.py --enforce` in CI.

serve::ServeRequest TopKBenchRequest(serve::TopKMethod method) {
  serve::ServeRequest request;
  request.id = "bench";
  request.op = serve::RequestOp::kTopK;
  request.method = method;
  request.k = 25;
  request.steps = 1;
  return request;
}

void BM_TopK_Celf(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  serve::ServeOptions options;
  options.cache_capacity = 0;  // measure the computation, not the cache
  auto service =
      serve::InfluenceService::Create(graph, /*model=*/nullptr, options)
          .value();
  const serve::ServeRequest request =
      TopKBenchRequest(serve::TopKMethod::kCelf);
  for (auto _ : state) {
    serve::ServeResponse response = service->Execute(request);
    benchmark::DoNotOptimize(response.payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopK_Celf)->Arg(10000)->Arg(50000);

void BM_TopK_Sketch(benchmark::State& state) {
  const Graph graph = MakeBenchGraph(state.range(0), 5);
  serve::ServeOptions options;
  options.cache_capacity = 0;
  SketchIndexOptions sketch_options;
  sketch_options.max_steps = 1;
  Result<std::unique_ptr<SketchIndex>> index =
      SketchIndex::Build(graph, sketch_options);
  if (!index.ok()) {
    state.SkipWithError("sketch index setup failed");
    return;
  }
  Result<std::shared_ptr<const serve::ServingAssets>> assets =
      serve::ServingAssets::Build(graph, /*model=*/nullptr,
                                  std::move(index).value());
  if (!assets.ok()) {
    state.SkipWithError("serving assets setup failed");
    return;
  }
  auto service =
      serve::InfluenceService::Create(std::move(assets).value(), options)
          .value();

  const serve::ServeRequest request =
      TopKBenchRequest(serve::TopKMethod::kSketch);
  const Result<std::vector<int64_t>> sketch_seeds =
      service->Execute(request).payload.GetIntArray("seeds");
  const Result<std::vector<int64_t>> celf_seeds =
      service->Execute(TopKBenchRequest(serve::TopKMethod::kCelf))
          .payload.GetIntArray("seeds");
  if (!sketch_seeds.ok() || !celf_seeds.ok() ||
      sketch_seeds.value() != celf_seeds.value()) {
    state.SkipWithError("sketch seed set diverges from CELF");
    return;
  }
  if (service->GetStats().sketch_fallbacks != 0) {
    state.SkipWithError("sketch request fell back to CELF");
    return;
  }

  for (auto _ : state) {
    serve::ServeResponse response = service->Execute(request);
    benchmark::DoNotOptimize(response.payload);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopK_Sketch)->Arg(10000)->Arg(50000);

void BM_RdpAccountantEpsilon(benchmark::State& state) {
  SubsampledGaussianConfig config;
  config.container_size = 300;
  config.batch_size = 32;
  config.occurrence_bound = state.range(0);
  config.noise_multiplier = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeEpsilon(config, 80, 1e-4).epsilon);
  }
}
BENCHMARK(BM_RdpAccountantEpsilon)->Arg(6)->Arg(300);

void BM_NoiseCalibration(benchmark::State& state) {
  SubsampledGaussianConfig config;
  config.container_size = 300;
  config.batch_size = 32;
  config.occurrence_bound = 6;
  for (auto _ : state) {
    Result<double> sigma = CalibrateNoiseMultiplier(config, 80, 1e-4, 3.0);
    benchmark::DoNotOptimize(sigma.value());
  }
}
BENCHMARK(BM_NoiseCalibration);

}  // namespace
}  // namespace privim

// Custom main: peel off --threads and --metrics-out (google-benchmark
// rejects unknown flags), validate them through the Flags helpers, then hand
// the rest to the benchmark runner. With --metrics-out, tracing is enabled
// and the combined metrics + trace JSON is written after the run.
int main(int argc, char** argv) {
  std::vector<char*> bench_argv;
  std::vector<char*> peeled_argv;
  bench_argv.reserve(static_cast<size_t>(argc));
  if (argc > 0) peeled_argv.push_back(argv[0]);  // Flags skips argv[0]
  auto is_peeled = [](const std::string& arg) {
    return arg.rfind("--threads", 0) == 0 ||
           arg.rfind("--metrics-out", 0) == 0;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && is_peeled(arg)) {
      peeled_argv.push_back(argv[i]);
      const bool has_inline_value = arg.find('=') != std::string::npos;
      // Mirror the Flags parser: a separate value token is anything that
      // does not itself start with "--".
      if (!has_inline_value && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        peeled_argv.push_back(argv[++i]);
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }

  const privim::Flags flags(static_cast<int>(peeled_argv.size()),
                            peeled_argv.data());
  const privim::Result<int64_t> threads = flags.ValidatedThreads();
  if (!threads.ok()) {
    std::fprintf(stderr, "error: %s\n", threads.status().ToString().c_str());
    return 2;
  }
  const privim::Result<std::string> metrics_out = flags.MetricsOutPath();
  if (!metrics_out.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 metrics_out.status().ToString().c_str());
    return 2;
  }
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(threads.value()));
  if (!metrics_out.value().empty()) privim::obs::SetTracingEnabled(true);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!metrics_out.value().empty()) {
    const std::string error =
        privim::obs::WriteMetricsFile(metrics_out.value());
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n",
                 metrics_out.value().c_str());
  }
  return 0;
}
