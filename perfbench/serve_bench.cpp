// serve-trace: the serving layers, timed in-process.
//
//   serve-trace --graph G --model M --probes P --requests R
//               --windows "offset:count:rate,..." [--threads 2]
//               [--replies-out F]
//
// 1. Set-up layers: SketchIndex::Build, ServingAssets::Build (fused compile
//    and probe) and the first, memoized ServingAssets::Scores().
// 2. Per request class, on a single-threaded service with the cache off:
//    ParseServeRequest, InfluenceService::Execute, ServeResponse::ToJsonLine,
//    and the layer call the class reaches (InducedSubgraph + InferEngine,
//    SketchIndex::TopK, CelfGreedy, RisSeedSelection, EstimateIcSpread).
//    A second execution on a cached service times a cache hit.
// 3. The schedule windows replayed through InfluenceService::SubmitAsync on
//    a service configured like privim_serve (--threads pool, default queue,
//    batch and cache), sent on the same open-loop grid as the TCP load.
//    Every reply line goes to --replies-out for the byte comparison with
//    the TCP replies. Queue wait is submit->callback minus the request's
//    solo compute, for requests not answered from the cache.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "privim/common/thread_pool.h"
#include "privim/diffusion/ic_model.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/graph_io.h"
#include "privim/graph/subgraph.h"
#include "privim/im/celf.h"
#include "privim/im/ris.h"
#include "privim/im/seed_selection.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/im/spread_oracle.h"
#include "privim/serve/assets.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"

namespace perfbench {
namespace {

using privim::Status;
using privim::serve::InfluenceService;
using privim::serve::RequestOp;
using privim::serve::ServeRequest;
using privim::serve::ServeResponse;
using privim::serve::ServingAssets;
using privim::serve::TopKMethod;

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The request class names used in the metric names.
std::string ClassOf(const ServeRequest& r) {
  if (r.op == RequestOp::kInfluence) {
    return r.subgraph.empty() ? "lookup" : "subgraph";
  }
  if (r.op == RequestOp::kSpread) return "spread";
  switch (r.method) {
    case TopKMethod::kModel:
      return "topk_model";
    case TopKMethod::kSketch:
      return "sketch";
    case TopKMethod::kCelf:
      return "celf";
    case TopKMethod::kRis:
      return "ris";
  }
  return "other";
}

// Times the library call a request class reaches, outside the service.
privim::Result<double> TimeLayerCall(const ServingAssets& assets,
                                     const ServeRequest& r) {
  const privim::Graph& graph = assets.graph();
  const double start = Now();
  const std::string cls = ClassOf(r);
  if (cls == "lookup" || cls == "topk_model") {
    privim::Result<privim::Tensor> scores = assets.Scores();
    if (!scores.ok()) return scores.status();
    if (cls == "topk_model") privim::TopKSeeds(scores.value(), r.k);
  } else if (cls == "subgraph") {
    privim::Result<privim::Subgraph> sub =
        privim::InducedSubgraph(graph, r.subgraph);
    if (!sub.ok()) return sub.status();
    const privim::GraphContext ctx = privim::GraphContext::Build(sub->local);
    const privim::Tensor features = privim::BuildNodeFeatures(
        sub->local, assets.model()->config().input_dim, &sub->global_ids);
    privim::Tensor out;
    if (assets.engine() == nullptr) {
      return Status::FailedPrecondition("fused engine inactive");
    }
    PRIVIM_RETURN_NOT_OK(assets.engine()->Forward(ctx, features, &out));
  } else if (cls == "sketch") {
    if (assets.sketch() == nullptr) {
      return Status::FailedPrecondition("no sketch index");
    }
    PRIVIM_RETURN_NOT_OK(assets.sketch()->TopK(r.k).status());
  } else if (cls == "celf") {
    const privim::DeterministicCoverageOracle oracle(graph, r.steps);
    PRIVIM_RETURN_NOT_OK(privim::CelfGreedy(oracle, r.k).status());
  } else if (cls == "ris") {
    privim::RisOptions ris;
    ris.num_rr_sets = r.rr_sets;
    ris.max_steps = r.steps;
    privim::Rng rng(r.seed);
    PRIVIM_RETURN_NOT_OK(
        privim::RisSeedSelection(graph, r.k, ris, &rng).status());
  } else if (cls == "spread") {
    privim::IcOptions mc;
    mc.max_steps = r.steps;
    mc.num_simulations = r.simulations;
    privim::Rng rng(r.seed);
    privim::EstimateIcSpread(graph, r.seeds, mc, &rng);
  } else {
    return Status::InvalidArgument("no layer call for class " + cls);
  }
  return Now() - start;
}

struct Window {
  int64_t offset = 0;
  int64_t count = 0;
  double rate = 0.0;
};

privim::Result<std::vector<Window>> ParseWindows(const std::string& spec) {
  std::vector<Window> windows;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    Window w;
    char c1 = 0, c2 = 0;
    std::stringstream fields(item);
    if (!(fields >> w.offset >> c1 >> w.count >> c2 >> w.rate) || c1 != ':' ||
        c2 != ':' || w.count < 1 || !(w.rate > 0.0)) {
      return Status::InvalidArgument("bad window " + item);
    }
    windows.push_back(w);
  }
  return windows;
}

// One open-loop window through SubmitAsync.
struct Replay {
  std::vector<double> latency_ms;  ///< submit -> callback
  std::vector<std::string> lines;  ///< reply lines
  std::vector<bool> cached;
  std::vector<bool> ok;
  int64_t shed = 0;
};

privim::Result<Replay> ReplayWindow(InfluenceService* service,
                                    const std::vector<ServeRequest>& requests,
                                    double rate) {
  const size_t n = requests.size();
  Replay replay;
  replay.latency_ms.assign(n, 0.0);
  replay.lines.assign(n, "");
  replay.cached.assign(n, false);
  replay.ok.assign(n, false);
  std::vector<double> submitted(n, 0.0);
  std::mutex mutex;
  std::condition_variable all_done;
  size_t outstanding = n;

  const auto epoch = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(10);
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate)));
    submitted[i] = Now();
    const Status admitted = service->SubmitAsync(
        requests[i], [&, i](ServeResponse response) {
          const double done = Now();
          std::string line = response.ToJsonLine();
          std::lock_guard<std::mutex> lock(mutex);
          replay.latency_ms[i] = (done - submitted[i]) * 1e3;
          replay.lines[i] = std::move(line);
          replay.cached[i] = response.cached;
          replay.ok[i] = response.status.ok();
          if (--outstanding == 0) all_done.notify_all();
        });
    if (!admitted.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      ++replay.shed;
      if (--outstanding == 0) all_done.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  if (!all_done.wait_for(lock, std::chrono::seconds(120),
                         [&] { return outstanding == 0; })) {
    // The callbacks reference this frame: Stop() runs every one still
    // pending before it returns, so none can fire after we do.
    lock.unlock();
    service->Stop();
    return Status::DeadlineExceeded("in-process replay did not drain");
  }
  return replay;
}

}  // namespace

int ServeTraceMain(const Args& args) {
  privim::SetGlobalThreadPoolSize(1);
  privim::Result<privim::Graph> loaded =
      privim::LoadEdgeList(args.Str("graph", ""), /*undirected=*/true);
  if (!loaded.ok()) return Fail(loaded.status());
  auto graph = std::make_shared<const privim::Graph>(std::move(loaded).value());
  privim::Result<std::unique_ptr<privim::GnnModel>> model =
      privim::LoadGnnModel(args.Str("model", ""));
  if (!model.ok()) return Fail(model.status());
  std::shared_ptr<const privim::GnnModel> shared_model(
      std::move(model).value());
  privim::Result<std::vector<Window>> windows =
      ParseWindows(args.Str("windows", ""));
  if (!windows.ok()) return Fail(windows.status());

  // 1. Set-up layers, as privim_serve --assets-build-sketch-index runs them.
  double start = Now();
  privim::SketchIndexOptions sketch_options;  // 4000 sets, 1 step, seed 42
  privim::Result<std::unique_ptr<privim::SketchIndex>> sketch =
      privim::SketchIndex::Build(*graph, sketch_options);
  if (!sketch.ok()) return Fail(sketch.status());
  const double sketch_build_s = Now() - start;
  start = Now();
  privim::Result<std::shared_ptr<const ServingAssets>> assets =
      ServingAssets::Build(
          graph, shared_model,
          std::shared_ptr<const privim::SketchIndex>(std::move(sketch).value()),
          privim::serve::InferEngineKind::kFused);
  if (!assets.ok()) return Fail(assets.status());
  const double assets_build_s = Now() - start;
  start = Now();
  if (Status s = assets.value()->Scores().status(); !s.ok()) return Fail(s);
  const double full_forward_s = Now() - start;

  // 2. Per-class layer calls on a single-threaded, cache-off service.
  privim::serve::ServeOptions solo_options;
  solo_options.cache_capacity = 0;
  privim::Result<std::unique_ptr<InfluenceService>> solo =
      InfluenceService::Create(assets.value(), solo_options);
  if (!solo.ok()) return Fail(solo.status());
  privim::Result<std::unique_ptr<InfluenceService>> cached =
      InfluenceService::Create(assets.value(), privim::serve::ServeOptions());
  if (!cached.ok()) return Fail(cached.status());

  std::string failures;
  const auto fail = [&failures](const std::string& what) {
    if (failures.find(what) == std::string::npos) {
      failures += failures.empty() ? what : "; " + what;
    }
  };
  JsonOut out;
  std::vector<double> parse_us, serialize_us, overhead_us, cache_hit_us;
  std::map<std::string, std::vector<double>> execute_us, layer_s;
  for (const std::string& line : ReadLines(args.Str("probes", ""))) {
    start = Now();
    privim::Result<ServeRequest> request =
        privim::serve::ParseServeRequest(line);
    parse_us.push_back((Now() - start) * 1e6);
    if (!request.ok()) return Fail(request.status());
    const std::string cls = ClassOf(request.value());
    start = Now();
    const ServeResponse response = solo.value()->Execute(request.value());
    const double execute = Now() - start;
    if (!response.status.ok()) fail("probe " + cls + " failed");
    start = Now();
    const std::string serialized = response.ToJsonLine();
    serialize_us.push_back((Now() - start) * 1e6);
    privim::Result<double> layer = TimeLayerCall(*assets.value(),
                                                 request.value());
    if (!layer.ok()) return Fail(layer.status());
    execute_us[cls].push_back(execute * 1e6);
    layer_s[cls].push_back(layer.value());
    overhead_us.push_back((execute - layer.value()) * 1e6);
    if (cls == "lookup") {
      cached.value()->Execute(request.value());
      start = Now();
      const ServeResponse hit = cached.value()->Execute(request.value());
      cache_hit_us.push_back((Now() - start) * 1e6);
      if (!hit.cached || hit.ToJsonLine() != serialized) {
        fail("repeated lookup was not an identical cache hit");
      }
    }
  }
  const auto scaled = [](const std::vector<double>& seconds, double factor) {
    std::vector<double> values;
    for (const double s : seconds) values.push_back(s * factor);
    return values;
  };
  out.Num("serve.assets_build_s", assets_build_s)
      .Num("nn.infer.full_forward_s", full_forward_s)
      .Num("im.sketch.build_s", sketch_build_s)
      .Nums("serve.parse_us", parse_us)
      .Nums("serve.serialize_us", serialize_us)
      .Nums("serve.lookup_us", execute_us["lookup"])
      .Nums("serve.topk_model_us", execute_us["topk_model"])
      .Nums("serve.cache_hit_us", cache_hit_us)
      .Nums("nn.infer.subgraph_us", scaled(layer_s["subgraph"], 1e6))
      .Nums("im.sketch.topk_us", scaled(layer_s["sketch"], 1e6))
      .Nums("im.celf.topk_ms", scaled(layer_s["celf"], 1e3))
      .Nums("im.ris.topk_ms", scaled(layer_s["ris"], 1e3))
      .Nums("diffusion.mc_spread_ms", scaled(layer_s["spread"], 1e3))
      .Nums("serve.compute_overhead_us", overhead_us)
      .Nums("execute_us.repeat", cache_hit_us);
  // Solo Execute cost per class: the basis of the mix shares in
  // workloads.json, printed so they can be re-derived.
  for (const auto& [cls, values] : execute_us) {
    out.Nums("execute_us." + cls, values);
  }

  // 3. The TCP schedule, replayed in-process on a privim_serve-like service.
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(args.Int("threads", 2)));
  privim::Result<std::unique_ptr<InfluenceService>> service =
      InfluenceService::Create(assets.value(), privim::serve::ServeOptions());
  if (!service.ok()) return Fail(service.status());
  if (Status s = service.value()->Start(); !s.ok()) return Fail(s);
  const std::vector<std::string> schedule =
      ReadLines(args.Str("requests", ""));
  std::ofstream replies(args.Str("replies-out", "/dev/null"),
                        std::ios::trunc);
  std::vector<double> queue_wait_ms;
  double batch_size_mean = 0.0;
  for (size_t w = 0; w < windows->size(); ++w) {
    const Window& window = windows.value()[w];
    if (window.offset + window.count > static_cast<int64_t>(schedule.size())) {
      return Fail(Status::OutOfRange("window past the end of the schedule"));
    }
    std::vector<ServeRequest> requests;
    for (int64_t i = window.offset; i < window.offset + window.count; ++i) {
      privim::Result<ServeRequest> request =
          privim::serve::ParseServeRequest(schedule[static_cast<size_t>(i)]);
      if (!request.ok()) return Fail(request.status());
      requests.push_back(std::move(request).value());
    }
    const privim::serve::ServiceStats before = service.value()->GetStats();
    privim::Result<Replay> replay =
        ReplayWindow(service.value().get(), requests, window.rate);
    if (!replay.ok()) return Fail(replay.status());
    const privim::serve::ServiceStats after = service.value()->GetStats();
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!replay->ok[i]) fail("in-process replay request not ok");
      replies << requests[i].id << '\t' << replay->lines[i] << '\n';
    }
    out.Nums("inproc_ms.w" + std::to_string(w), replay->latency_ms)
        .Int("inproc_shed.w" + std::to_string(w), replay->shed);
    if (w + 1 == windows->size()) {
      // Queue wait at the last (highest) rate: latency minus solo compute.
      for (size_t i = 0; i < requests.size(); ++i) {
        if (replay->cached[i]) continue;
        start = Now();
        solo.value()->Execute(requests[i]);
        queue_wait_ms.push_back(replay->latency_ms[i] - (Now() - start) * 1e3);
      }
      // Cache hits never enter the queue, so they are not in `admitted`.
      const double batches =
          static_cast<double>(after.batches - before.batches);
      batch_size_mean =
          batches > 0
              ? static_cast<double>(after.admitted - before.admitted) / batches
              : 0.0;
    }
  }
  service.value()->Stop();
  out.Nums("serve.queue_wait_ms", queue_wait_ms)
      .Num("serve.batch_size_mean", batch_size_mean)
      .Str("failures", failures);
  return Emit(out);
}

}  // namespace perfbench
