// privim_serve — batch/offline AND network front end for the
// InfluenceService.
//
// Loads the serving assets (graph, optional released model, optional RIS
// sketch index) into one immutable snapshot, then streams JSON-lines
// influence requests through the batching engine:
//
//   privim_serve --graph graph.txt --model privim.model
//                --requests queries.jsonl --out answers.jsonl
//
// Requests come from --requests FILE or stdin; one response line is
// written per request, in input order, to --out FILE or stdout. Every
// request is submitted before the first response is awaited, so the
// engine sees the full window of in-flight work and can coalesce batches
// (the admission queue applies backpressure once it fills).
//
// With --listen HOST:PORT the same wire format is served over TCP —
// --net-loops N runs N SO_REUSEPORT event loops on the port (see
// serve/net/group.h). Each connection may speak raw JSON-lines or
// HTTP/1.1 (POST /v1/query, GET /v1/info, GET /v1/healthz, GET
// /v1/metrics, POST /v1/admin/swap), auto-detected from its first bytes:
//
//   privim_serve --graph graph.txt --model privim.model
//                --listen 127.0.0.1:7433 --deadline-ms 250 --net-loops 4
//   curl -s http://127.0.0.1:7433/v1/query
//        -d '{"id":"q1","op":"topk","k":5,"method":"celf"}'
//
// Socket responses are byte-identical to the stdin path for the same
// request stream (HTTP bodies wrap the exact JSONL line). Under overload
// the listener sheds load with immediate {"ok":false,"code":"Unavailable",
// "error":"overloaded"} lines instead of blocking; SIGTERM (or SIGINT)
// triggers a graceful drain across every loop — stop accepting, answer
// everything admitted, flush, exit 0.
//
// {"op":"admin","action":"swap",...} (or POST /v1/admin/swap) hot-swaps
// the served assets — model, sketch index, even the graph — without
// dropping a connection; over TCP it is accepted from loopback peers
// only. In-flight requests finish on the snapshot they were admitted
// under, and the response cache keys on the snapshot fingerprint, so a
// swap can never surface a stale payload.
//
// A malformed request line produces an {"ok":false,...} response line in
// place — the process keeps serving and exits 0; only setup errors (bad
// flags, unreadable graph/model) are fatal. Responses are bit-identical
// for a fixed request seed regardless of --threads, batch composition or
// cache state.
//
// --metrics-out exports the serve.* metrics (queue depth, batch-size and
// latency histograms, cache hit/miss counters, serve.net.* listener
// metrics — per-loop serve.net.loopK.* families with --net-loops > 1,
// serve.swap.* swap counters) plus trace spans.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "privim/common/flag_registry.h"
#include "privim/common/flags.h"
#include "privim/common/mem_stats.h"
#include "privim/common/thread_pool.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/graph_io.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/obs/export.h"
#include "privim/obs/trace.h"
#include "privim/serve/assets.h"
#include "privim/serve/net/group.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"

namespace privim {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Printed on every exit path — clean EOF, --requests exhaustion, and
// SIGTERM-triggered drain — so supervisors and CI can always assert the
// served/shed counts from stderr.
void PrintStatsLine(const serve::InfluenceService& service, uint64_t shed) {
  const serve::ServiceStats stats = service.GetStats();
  std::fprintf(stderr,
               "served %llu requests in %llu batches (max batch %llu, "
               "cache %llu/%llu hits, shed %llu)\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.max_batch_size),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_hits +
                                               stats.cache_misses),
               static_cast<unsigned long long>(shed));
  std::fprintf(stderr, "sketch: %llu served, %llu fallbacks (index %s)\n",
               static_cast<unsigned long long>(stats.sketch_hits),
               static_cast<unsigned long long>(stats.sketch_fallbacks),
               stats.sketch_active ? "attached" : "none");
  if (stats.swaps > 0 || stats.swap_errors > 0) {
    std::fprintf(stderr, "swaps: %llu applied, %llu refused (serving %s)\n",
                 static_cast<unsigned long long>(stats.swaps),
                 static_cast<unsigned long long>(stats.swap_errors),
                 serve::FingerprintHex(stats.fingerprint).c_str());
  }
}

// The SIGTERM/SIGINT handler may only do async-signal-safe work;
// NetServerGroup::RequestShutdown is (atomic stores + write(2) per loop).
serve::net::NetServerGroup* g_net_group = nullptr;

void HandleShutdownSignal(int /*signum*/) {
  if (g_net_group != nullptr) g_net_group->RequestShutdown();
}

FlagRegistry ServeCliFlags() {
  FlagRegistry registry;
  registry.AddString("graph", "", "edge-list file to serve (required)")
      .AddBool("undirected", false, "treat input edges as undirected")
      .AddString("model", "",
                 "trained model file; empty serves graph-only ops "
                 "(celf/ris/spread)")
      .AddString("requests", "",
                 "JSON-lines request file; empty reads stdin")
      .AddString("out", "", "response file; empty writes stdout")
      .AddInt("queue-capacity", 256,
              "bounded admission queue size (backpressure beyond it)")
      .AddInt("max-batch", 16, "requests coalesced per scheduling batch")
      .AddInt("cache-capacity", 1024,
              "response cache entries; 0 disables caching")
      .AddInt("cache-shards", 8, "response cache shard count")
      .AddInt("threads", 0,
              "global worker pool size; 0 = hardware concurrency, 1 = "
              "serial (PRIVIM_THREADS env fallback)")
      .AddString("metrics-out", "",
                 "write combined metrics + trace JSON to this file at exit")
      .AddString("listen", "",
                 "serve the wire format over TCP on HOST:PORT instead of "
                 "stdin/stdout (port 0 = ephemeral; see --port-file). "
                 "Connections speak raw JSON-lines or HTTP/1.1, "
                 "auto-detected")
      .AddInt("net-loops", 1,
              "event loops sharing the listen port via SO_REUSEPORT "
              "(listen mode only); each loop has its own epoll fd and "
              "accept socket, all feeding one engine")
      .AddString("port-file", "",
                 "write the bound HOST:PORT to this file once listening "
                 "(for tests and scripts using --listen HOST:0)")
      .AddInt("deadline-ms", 0,
              "per-request completion budget in ms; 0 disables "
              "(listen mode only)")
      .AddInt("max-connections", 1024,
              "concurrent connection cap per event loop; excess "
              "connections get one overloaded line and are closed "
              "(listen mode only)")
      .AddInt("max-line-bytes", 1 << 20,
              "longest accepted request line or HTTP request "
              "(listen mode only)")
      .AddInt("drain-grace-ms", 5000,
              "after SIGTERM, how long to wait for idle clients to close "
              "before force-closing (listen mode only)")
      .AddString("assets-sketch-index", "",
                 "RIS sketch index file for method=sketch top-k; loaded "
                 "into the serving snapshot (refused if built for a "
                 "different graph). Without it, method=sketch falls back "
                 "to CELF")
      .AddBool("assets-build-sketch-index", false,
               "build the sketch index from the serving graph, save it to "
               "--assets-sketch-index, serve it, and keep serving")
      .AddInt("assets-sketch-rr-sets", 4000,
              "RR sets to sample when building a sketch index over a "
              "weighted graph (unit-weight graphs use one exhaustive "
              "sketch per node instead)")
      .AddInt("assets-sketch-steps", 1,
              "diffusion step bound baked into a built sketch index; "
              "method=sketch requests with a different \"steps\" fall "
              "back to CELF (-1 = to quiescence)")
      .AddInt("assets-sketch-seed", 42,
              "base seed for the sampled sketch build (ignored by the "
              "exhaustive unit-weight mode)");
  return registry;
}

// Loads (or builds and saves) the sketch index named by the flags; returns
// null when none was asked for.
Result<std::shared_ptr<const SketchIndex>> LoadSketchIndex(
    const Flags& flags, const Graph& graph) {
  const std::string sketch_path = flags.GetString("assets-sketch-index", "");
  if (sketch_path.empty()) {
    if (flags.GetBool("assets-build-sketch-index", false)) {
      return Status::InvalidArgument(
          "--assets-build-sketch-index needs --assets-sketch-index PATH to "
          "save to");
    }
    return std::shared_ptr<const SketchIndex>();
  }
  if (flags.GetBool("assets-build-sketch-index", false)) {
    SketchIndexOptions sketch_options;
    sketch_options.num_sketches = flags.GetInt("assets-sketch-rr-sets", 4000);
    sketch_options.max_steps = flags.GetInt("assets-sketch-steps", 1);
    sketch_options.seed =
        static_cast<uint64_t>(flags.GetInt("assets-sketch-seed", 42));
    Result<std::unique_ptr<SketchIndex>> built =
        SketchIndex::Build(graph, sketch_options);
    if (!built.ok()) return built.status();
    PRIVIM_RETURN_NOT_OK(built.value()->Save(sketch_path));
    std::fprintf(stderr,
                 "sketch index built: %lld sketches (%s), %lld bytes -> "
                 "%s\n",
                 static_cast<long long>(built.value()->num_sketches()),
                 built.value()->exhaustive() ? "exhaustive" : "sampled",
                 static_cast<long long>(built.value()->SizeBytes()),
                 sketch_path.c_str());
    return std::shared_ptr<const SketchIndex>(std::move(built).value());
  }
  Result<std::unique_ptr<SketchIndex>> loaded = SketchIndex::Load(sketch_path);
  if (!loaded.ok()) return loaded.status();
  return std::shared_ptr<const SketchIndex>(std::move(loaded).value());
}

Result<std::shared_ptr<const GnnModel>> LoadModelFile(
    const std::string& path) {
  Result<std::unique_ptr<GnnModel>> loaded = LoadGnnModel(path);
  if (!loaded.ok()) return loaded.status();
  return std::shared_ptr<const GnnModel>(std::move(loaded).value());
}

int ServeListen(const Flags& flags, serve::InfluenceService* service) {
  Result<serve::net::HostPort> listen =
      serve::net::ParseHostPort(flags.GetString("listen", ""));
  if (!listen.ok()) return Fail(listen.status());

  serve::net::NetServerGroupOptions options;
  options.server.listen = listen.value();
  options.server.deadline_ms = flags.GetInt("deadline-ms", 0);
  options.server.max_connections = flags.GetInt("max-connections", 1024);
  options.server.max_line_bytes = flags.GetInt("max-line-bytes", 1 << 20);
  options.server.drain_grace_ms = flags.GetInt("drain-grace-ms", 5000);
  options.loops = flags.GetInt("net-loops", 1);

  Result<std::unique_ptr<serve::net::NetServerGroup>> group =
      serve::net::NetServerGroup::Create(service, options);
  if (!group.ok()) return Fail(group.status());

  g_net_group = group->get();
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGPIPE, SIG_IGN);

  const std::string bound = group.value()->bound_address().ToString();
  if (const std::string path = flags.GetString("port-file", "");
      !path.empty()) {
    std::ofstream port_file(path, std::ios::trunc);
    port_file << bound << '\n';
    if (!port_file.good()) {
      return Fail(Status::IOError("cannot write --port-file: " + path));
    }
  }
  std::fprintf(stderr, "listening on %s (%lld loops)\n", bound.c_str(),
               static_cast<long long>(group.value()->loops()));

  const Status ran = group.value()->Run();

  const serve::net::NetServerStats net_stats = group.value()->GetStats();
  g_net_group = nullptr;
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  if (!ran.ok()) return Fail(ran);
  service->Stop();
  PrintStatsLine(*service, net_stats.shed);
  std::fprintf(
      stderr,
      "listener: %llu connections, %llu requests, %llu responses, "
      "%llu deadline-exceeded, %llu bad lines\n",
      static_cast<unsigned long long>(net_stats.accepted),
      static_cast<unsigned long long>(net_stats.requests),
      static_cast<unsigned long long>(net_stats.responses),
      static_cast<unsigned long long>(net_stats.deadline_exceeded),
      static_cast<unsigned long long>(net_stats.bad_lines));
  return 0;
}

int Serve(const Flags& flags) {
  const std::string graph_path = flags.GetString("graph", "");
  if (graph_path.empty()) {
    return Fail(Status::InvalidArgument("--graph FILE is required"));
  }
  const bool undirected = flags.GetBool("undirected", false);
  Result<Graph> graph = LoadEdgeList(graph_path, undirected);
  if (!graph.ok()) return Fail(graph.status());

  std::shared_ptr<const GnnModel> model;
  if (const std::string model_path = flags.GetString("model", "");
      !model_path.empty()) {
    Result<std::shared_ptr<const GnnModel>> loaded =
        LoadModelFile(model_path);
    if (!loaded.ok()) return Fail(loaded.status());
    model = std::move(loaded).value();
  }

  serve::ServeOptions options;
  options.queue_capacity = flags.GetInt("queue-capacity", 256);
  options.max_batch = flags.GetInt("max-batch", 16);
  options.cache_capacity = flags.GetInt("cache-capacity", 1024);
  options.cache_shards = flags.GetInt("cache-shards", 8);

  Result<std::shared_ptr<const SketchIndex>> sketch =
      LoadSketchIndex(flags, graph.value());
  if (!sketch.ok()) return Fail(sketch.status());

  Result<std::shared_ptr<const serve::ServingAssets>> assets =
      serve::ServingAssets::Build(std::move(graph).value(), std::move(model),
                                  std::move(sketch).value());
  if (!assets.ok()) return Fail(assets.status());

  Result<std::unique_ptr<serve::InfluenceService>> service =
      serve::InfluenceService::Create(std::move(assets).value(), options);
  if (!service.ok()) return Fail(service.status());

  // The swap factory gives {"op":"admin","action":"swap",...} its file
  // loading: a swap builds a complete replacement snapshot from the named
  // files, reusing the currently served graph when the request names none.
  // Keeping file I/O here — not in the engine — means the service stays a
  // pure request processor.
  serve::InfluenceService* service_ptr = service.value().get();
  Status factory_installed = service_ptr->SetAssetsFactory(
      [service_ptr, undirected](const serve::ServeRequest& req)
          -> Result<std::shared_ptr<const serve::ServingAssets>> {
        std::shared_ptr<const Graph> swap_graph;
        if (req.swap_graph.empty()) {
          swap_graph = service_ptr->assets()->shared_graph();
        } else {
          Result<Graph> loaded = LoadEdgeList(req.swap_graph, undirected);
          if (!loaded.ok()) return loaded.status();
          swap_graph =
              std::make_shared<const Graph>(std::move(loaded).value());
        }
        std::shared_ptr<const GnnModel> swap_model;
        if (!req.swap_model.empty()) {
          Result<std::shared_ptr<const GnnModel>> loaded =
              LoadModelFile(req.swap_model);
          if (!loaded.ok()) return loaded.status();
          swap_model = std::move(loaded).value();
        }
        std::shared_ptr<const SketchIndex> swap_sketch;
        if (!req.swap_sketch.empty()) {
          Result<std::unique_ptr<SketchIndex>> loaded =
              SketchIndex::Load(req.swap_sketch);
          if (!loaded.ok()) return loaded.status();
          swap_sketch =
              std::shared_ptr<const SketchIndex>(std::move(loaded).value());
        }
        return serve::ServingAssets::Build(std::move(swap_graph),
                                           std::move(swap_model),
                                           std::move(swap_sketch));
      });
  if (!factory_installed.ok()) return Fail(factory_installed);

  if (Status started = service.value()->Start(); !started.ok()) {
    return Fail(started);
  }

  if (!flags.GetString("listen", "").empty()) {
    return ServeListen(flags, service.value().get());
  }

  std::ifstream request_file;
  std::istream* in = &std::cin;
  if (const std::string path = flags.GetString("requests", "");
      !path.empty()) {
    request_file.open(path);
    if (!request_file.is_open()) {
      return Fail(Status::IOError("cannot open --requests file: " + path));
    }
    in = &request_file;
  }
  std::ofstream response_file;
  std::ostream* out = &std::cout;
  if (const std::string path = flags.GetString("out", ""); !path.empty()) {
    response_file.open(path, std::ios::trunc);
    if (!response_file.is_open()) {
      return Fail(Status::IOError("cannot open --out file: " + path));
    }
    out = &response_file;
  }

  // One slot per input line, in input order: either an already-final
  // response (parse error) or a future from the engine. Submitting the
  // whole stream before awaiting anything maximizes the in-flight window
  // the scheduler can coalesce; Submit blocks once the queue is full, so
  // memory stays bounded by queue_capacity + outstanding futures.
  struct Slot {
    serve::ServeResponse response;
    std::future<serve::ServeResponse> future;
    bool ready = false;
  };
  std::vector<Slot> slots;
  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    Slot slot;
    Result<serve::ServeRequest> request = serve::ParseServeRequest(line);
    if (!request.ok()) {
      slot.response = serve::ResponseForBadLine(line, request.status());
      slot.ready = true;
    } else {
      Result<std::future<serve::ServeResponse>> submitted =
          service.value()->Submit(request.value());
      if (!submitted.ok()) {
        slot.response.id = request->id;
        slot.response.status = submitted.status();
        slot.ready = true;
      } else {
        slot.future = std::move(submitted.value());
      }
    }
    slots.push_back(std::move(slot));
  }

  for (Slot& slot : slots) {
    const serve::ServeResponse response =
        slot.ready ? slot.response : slot.future.get();
    (*out) << response.ToJsonLine() << '\n';
  }
  out->flush();
  service.value()->Stop();

  PrintStatsLine(*service.value(), /*shed=*/0);
  return 0;
}

int Main(int argc, char** argv) {
  const FlagRegistry registry = ServeCliFlags();
  Result<ParsedFlags> parsed = registry.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->help_requested) {
    std::printf("%s",
                registry.HelpText("usage: privim_serve --graph FILE "
                                  "[--model FILE] [--requests FILE] "
                                  "[--out FILE] [--listen HOST:PORT] "
                                  "[--flags]")
                    .c_str());
    return 0;
  }
  const Flags& flags = parsed->flags;

  const Result<int64_t> threads = flags.ValidatedThreads();
  if (!threads.ok()) return Fail(threads.status());
  const Result<std::string> metrics_out = flags.MetricsOutPath();
  if (!metrics_out.ok()) return Fail(metrics_out.status());
  SetGlobalThreadPoolSize(static_cast<size_t>(threads.value()));
  if (!metrics_out->empty()) obs::SetTracingEnabled(true);

  int rc = Serve(flags);

  if (!metrics_out->empty()) {
    UpdateGraphMemGauges();
    const std::string error = obs::WriteMetricsFile(metrics_out.value());
    if (error.empty()) {
      std::fprintf(stderr, "metrics written to %s\n",
                   metrics_out.value().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) { return privim::Main(argc, argv); }
