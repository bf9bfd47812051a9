// privim_loadgen — TCP load generator for privim_serve --listen,
// reporting throughput and latency percentiles as JSON.
//
//   privim_loadgen --target 127.0.0.1:7433 --connections 8
//     --duration-s 10 --seed 42 --max-node 63 --out loadgen.json
//
// Each of N worker threads opens its own connection, then every worker
// waits on a start barrier so no request is sent before all connections
// are up; the measurement window opens for all workers at once and a stop
// barrier closes it the same way (the start/stop-barrier discipline of
// NVSL's MicroBenchmarkHarness — see common/barrier.h). Within the
// window every worker runs a closed loop: send one request, block for its
// response, record the latency, repeat.
//
// --rate QPS switches to OPEN-LOOP load: request send times are scheduled
// on a fixed grid (rate/connections per worker) before the run, and each
// latency is measured from the request's SCHEDULED send time, not the
// moment it actually left the socket. A server stall therefore inflates
// the recorded latency of every request that should have been sent during
// the stall — the coordinated-omission correction — instead of quietly
// thinning the offered load the way a closed loop does.
//
// --http sends the same workload as HTTP/1.1 POST /v1/query requests over
// keep-alive connections (the server auto-detects the framing per
// connection); response bodies are the exact JSONL lines, so the report
// is comparable across framings.
//
// The workload is a seeded deterministic mix of influence / topk / spread
// requests over node ids [0, max-node]; worker i draws from
// SplitRng(seed, i), so the exact request sequence depends only on
// (--seed, worker index) — reruns offer identical load. Per-request
// "seed" fields are drawn from the same stream, which keeps the server's
// response cache mostly cold (the point is to measure computation, not
// cache hits); pass --request-seeds N to restrict them to N distinct
// values and measure the cached regime instead.
//
// Output (stdout or --out) is one JSON object with requests/ok/errors/
// shed/deadline-exceeded counts, the measured window, QPS, and
// nearest-rank P50/P95/P99 latency in milliseconds. Feed it to
// tools/bench_compare.py merge --loadgen to turn the percentiles into
// benchmark entries (Loadgen_P50/P95/P99) that `compare --enforce` can
// gate in CI.
//
// Exit status: 0 when every request got a response (shed and
// deadline-exceeded responses are still responses — they count toward
// their own buckets, not as transport errors); 1 on setup or transport
// failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "privim/common/barrier.h"
#include "privim/common/flag_registry.h"
#include "privim/common/flags.h"
#include "privim/common/rng.h"
#include "privim/common/status.h"
#include "privim/common/timer.h"
#include "privim/serve/json.h"
#include "privim/serve/net/client.h"
#include "privim/serve/net/socket.h"

namespace privim {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

FlagRegistry LoadgenFlags() {
  FlagRegistry registry;
  registry
      .AddString("target", "",
                 "HOST:PORT of a privim_serve --listen instance (required)")
      .AddInt("connections", 4, "worker threads, one connection each")
      .AddDouble("duration-s", 5.0, "measurement window in seconds")
      .AddDouble("warmup-s", 0.0,
                 "requests sent before the window opens (not recorded)")
      .AddInt("seed", 42, "workload seed; reruns offer identical load")
      .AddInt("max-node", 63,
              "node ids are drawn from [0, max-node]; must be < the "
              "served graph's node count")
      .AddInt("request-seeds", 0,
              "distinct per-request \"seed\" values; 0 = unbounded "
              "(cache-cold), small N measures the cached regime")
      .AddBool("graph-only", false,
              "restrict the mix to ops that need no model (celf topk + "
              "spread)")
      .AddDouble("rate", 0.0,
                 "open-loop offered load in requests/s across all "
                 "connections; latencies are measured from each request's "
                 "scheduled send time (coordinated-omission corrected). "
                 "0 = closed loop")
      .AddBool("http", false,
               "speak HTTP/1.1 (POST /v1/query, keep-alive) instead of "
               "raw JSON-lines; response bodies are the same bytes")
      .AddString("out", "", "report file; empty writes stdout");
  return registry;
}

/// One worker's tally; merged after the stop barrier.
struct WorkerResult {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;  ///< non-ok responses other than the above
  std::vector<double> latencies_ms;
  Status transport;  ///< first connect/send/recv failure, if any
};

/// Deterministic request mix: ~1/3 influence, ~1/3 topk, ~1/3 spread
/// (graph-only mode swaps influence for spread and topk "model" for an
/// even celf/sketch alternation, since those need no trained model).
std::string NextRequestLine(Rng* rng, int64_t max_node,
                            int64_t request_seeds, bool graph_only,
                            uint64_t* next_id) {
  const uint64_t id = (*next_id)++;
  const uint64_t request_seed =
      request_seeds > 0
          ? rng->NextBounded(static_cast<uint64_t>(request_seeds))
          : rng->Next() >> 1;
  serve::JsonValue object = serve::JsonValue::Object();
  object.Set("id", serve::JsonValue::Str("lg" + std::to_string(id)));
  object.Set("seed",
             serve::JsonValue::Int(static_cast<int64_t>(request_seed)));
  const uint64_t pick = rng->NextBounded(3);
  if (pick == 0 && !graph_only) {
    object.Set("op", serve::JsonValue::Str("influence"));
    serve::JsonValue nodes = serve::JsonValue::Array();
    const int64_t count = rng->NextInt(1, 3);
    for (int64_t i = 0; i < count; ++i) {
      nodes.Append(serve::JsonValue::Int(rng->NextInt(0, max_node)));
    }
    object.Set("nodes", std::move(nodes));
  } else if (pick == 1) {
    object.Set("op", serve::JsonValue::Str("topk"));
    object.Set("k", serve::JsonValue::Int(rng->NextInt(1, 4)));
    // Graph-only mode alternates celf with sketch so an attached sketch
    // index is exercised under the same traffic (without one the server
    // answers sketch via its counted CELF fallback — same response shape).
    const char* method = "model";
    if (graph_only) method = rng->NextBounded(2) == 0 ? "celf" : "sketch";
    object.Set("method", serve::JsonValue::Str(method));
    object.Set("steps", serve::JsonValue::Int(1));
  } else {
    object.Set("op", serve::JsonValue::Str("spread"));
    serve::JsonValue seeds = serve::JsonValue::Array();
    const int64_t count = rng->NextInt(1, 2);
    for (int64_t i = 0; i < count; ++i) {
      seeds.Append(serve::JsonValue::Int(rng->NextInt(0, max_node)));
    }
    object.Set("seeds", std::move(seeds));
    object.Set("steps", serve::JsonValue::Int(1));
    object.Set("simulations", serve::JsonValue::Int(20));
  }
  return object.Dump();
}

void ClassifyResponse(const std::string& line, WorkerResult* result) {
  ++result->requests;
  Result<serve::JsonValue> doc = serve::JsonValue::Parse(line);
  if (!doc.ok()) {
    ++result->other_errors;
    return;
  }
  Result<bool> ok = doc->GetBool("ok", false);
  if (ok.ok() && ok.value()) {
    ++result->ok;
    return;
  }
  const Result<std::string> code = doc->GetString("code", "");
  if (code.ok() && code.value() == "Unavailable") {
    ++result->shed;
  } else if (code.ok() && code.value() == "DeadlineExceeded") {
    ++result->deadline_exceeded;
  } else {
    ++result->other_errors;
  }
}

/// Sends `line` as POST /v1/query and returns the response body with its
/// trailing newline stripped — the same string the JSONL framing yields,
/// so both framings classify identically.
Result<std::string> ExchangeHttp(serve::net::BlockingClient* client,
                                 const std::string& line) {
  const std::string wire =
      "POST /v1/query HTTP/1.1\r\nContent-Length: " +
      std::to_string(line.size()) + "\r\n\r\n" + line;
  if (Status sent = client->SendBytes(wire); !sent.ok()) return sent;
  Result<std::string> status_line = client->ReadLine();
  if (!status_line.ok()) return status_line.status();
  std::size_t content_length = 0;
  while (true) {
    Result<std::string> header = client->ReadLine();
    if (!header.ok()) return header.status();
    std::string h = std::move(header).value();
    if (!h.empty() && h.back() == '\r') h.pop_back();
    if (h.empty()) break;
    constexpr const char kLength[] = "Content-Length: ";
    if (h.rfind(kLength, 0) == 0) {
      content_length = static_cast<std::size_t>(
          std::strtoull(h.c_str() + sizeof(kLength) - 1, nullptr, 10));
    }
  }
  Result<std::string> body = client->ReadBytes(content_length);
  if (!body.ok()) return body.status();
  std::string b = std::move(body).value();
  if (!b.empty() && b.back() == '\n') b.pop_back();
  return b;
}

void RunWorker(const serve::net::HostPort& target, const Flags& flags,
               uint64_t worker_index, Barrier* start, Barrier* stop,
               const WallTimer* window, const std::atomic<bool>* ready,
               WorkerResult* result) {
  serve::net::BlockingClient client;
  const Status connected = client.Connect(target);
  if (!connected.ok()) result->transport = connected;

  Rng rng = SplitRng(static_cast<uint64_t>(flags.GetInt("seed", 42)),
                     worker_index);
  const int64_t max_node = flags.GetInt("max-node", 63);
  const int64_t request_seeds = flags.GetInt("request-seeds", 0);
  const bool graph_only = flags.GetBool("graph-only", false);
  const double warmup_s = flags.GetDouble("warmup-s", 0.0);
  const double duration_s = flags.GetDouble("duration-s", 5.0);
  const bool http = flags.GetBool("http", false);
  const double rate = flags.GetDouble("rate", 0.0);
  // Open loop: this worker owns every rate/connections-th slot of the
  // shared schedule, so the fleet offers `rate` requests/s in aggregate.
  const double interval_s =
      rate > 0 ? static_cast<double>(flags.GetInt("connections", 4)) / rate
               : 0.0;
  uint64_t next_id = worker_index << 32;
  uint64_t scheduled_index = 0;

  // All workers connect before any worker sends; the main thread resets
  // the shared window timer between the two barriers, so "elapsed" means
  // the same thing on every thread.
  start->ArriveAndWait();
  while (!ready->load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  while (result->transport.ok()) {
    double send_reference;  // latency is measured from this instant
    if (rate > 0) {
      // Scheduled send time on the fixed grid. When the previous response
      // came back late the schedule does NOT slip: the next request goes
      // out immediately and its latency is still charged from the grid
      // slot, so a server stall is visible in the percentiles instead of
      // silently thinning the load (coordinated-omission correction).
      const double scheduled =
          static_cast<double>(scheduled_index++) * interval_s;
      if (scheduled >= warmup_s + duration_s) break;
      while (window->ElapsedSeconds() < scheduled) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      send_reference = scheduled;
    } else {
      send_reference = window->ElapsedSeconds();
      if (send_reference >= warmup_s + duration_s) break;
    }
    const bool in_window = send_reference >= warmup_s;
    const std::string line = NextRequestLine(&rng, max_node, request_seeds,
                                             graph_only, &next_id);
    Result<std::string> response = std::string();
    if (http) {
      response = ExchangeHttp(&client, line);
    } else {
      if (Status sent = client.SendLine(line); !sent.ok()) {
        result->transport = sent;
        break;
      }
      response = client.ReadLine();
    }
    if (!response.ok()) {
      result->transport = response.status();
      break;
    }
    if (in_window) {
      ClassifyResponse(response.value(), result);
      result->latencies_ms.push_back(
          (window->ElapsedSeconds() - send_reference) * 1000.0);
    }
  }

  client.Close();
  stop->ArriveAndWait();
}

/// Nearest-rank percentile of an already-sorted sample (q in (0, 100]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

int Run(const Flags& flags) {
  const std::string target_spec = flags.GetString("target", "");
  if (target_spec.empty()) {
    return Fail(Status::InvalidArgument("--target HOST:PORT is required"));
  }
  Result<serve::net::HostPort> target =
      serve::net::ParseHostPort(target_spec);
  if (!target.ok()) return Fail(target.status());
  const int64_t connections = flags.GetInt("connections", 4);
  if (connections < 1) {
    return Fail(Status::InvalidArgument("--connections must be >= 1"));
  }
  if (flags.GetDouble("duration-s", 5.0) <= 0) {
    return Fail(Status::InvalidArgument("--duration-s must be > 0"));
  }
  if (flags.GetInt("max-node", 63) < 0) {
    return Fail(Status::InvalidArgument("--max-node must be >= 0"));
  }
  const double rate = flags.GetDouble("rate", 0.0);
  if (rate < 0) {
    return Fail(Status::InvalidArgument("--rate must be >= 0 (0 = closed "
                                        "loop)"));
  }

  // Workers + this thread party in both barriers: the main thread opens
  // the measurement window (timer reset) only after every worker has
  // arrived at the start barrier with its connection established.
  Barrier start(static_cast<std::size_t>(connections) + 1);
  Barrier stop(static_cast<std::size_t>(connections) + 1);
  WallTimer window;
  std::atomic<bool> ready{false};
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(connections));
  for (int64_t i = 0; i < connections; ++i) {
    workers.emplace_back(RunWorker, target.value(), std::cref(flags),
                         static_cast<uint64_t>(i), &start, &stop, &window,
                         &ready, &results[static_cast<std::size_t>(i)]);
  }

  start.ArriveAndWait();
  window.Reset();
  ready.store(true, std::memory_order_release);
  stop.ArriveAndWait();
  const double measured_s =
      window.ElapsedSeconds() - flags.GetDouble("warmup-s", 0.0);
  for (std::thread& worker : workers) worker.join();

  WorkerResult total;
  Status transport;
  for (WorkerResult& result : results) {
    total.requests += result.requests;
    total.ok += result.ok;
    total.shed += result.shed;
    total.deadline_exceeded += result.deadline_exceeded;
    total.other_errors += result.other_errors;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              result.latencies_ms.begin(),
                              result.latencies_ms.end());
    if (transport.ok() && !result.transport.ok()) {
      transport = result.transport;
    }
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());

  serve::JsonValue report = serve::JsonValue::Object();
  report.Set("target", serve::JsonValue::Str(target->ToString()));
  report.Set("mode", serve::JsonValue::Str(rate > 0 ? "open" : "closed"));
  if (rate > 0) report.Set("rate_qps", serve::JsonValue::Number(rate));
  report.Set("framing", serve::JsonValue::Str(
                            flags.GetBool("http", false) ? "http" : "jsonl"));
  report.Set("connections", serve::JsonValue::Int(connections));
  report.Set("duration_s", serve::JsonValue::Number(measured_s));
  report.Set("requests",
             serve::JsonValue::Int(static_cast<int64_t>(total.requests)));
  report.Set("ok", serve::JsonValue::Int(static_cast<int64_t>(total.ok)));
  report.Set("shed",
             serve::JsonValue::Int(static_cast<int64_t>(total.shed)));
  report.Set("deadline_exceeded",
             serve::JsonValue::Int(
                 static_cast<int64_t>(total.deadline_exceeded)));
  report.Set("errors", serve::JsonValue::Int(
                           static_cast<int64_t>(total.other_errors)));
  report.Set("qps",
             serve::JsonValue::Number(
                 measured_s > 0
                     ? static_cast<double>(total.requests) / measured_s
                     : 0.0));
  report.Set("p50_ms",
             serve::JsonValue::Number(Percentile(total.latencies_ms, 50)));
  report.Set("p95_ms",
             serve::JsonValue::Number(Percentile(total.latencies_ms, 95)));
  report.Set("p99_ms",
             serve::JsonValue::Number(Percentile(total.latencies_ms, 99)));
  if (!transport.ok()) {
    report.Set("transport_error",
               serve::JsonValue::Str(transport.ToString()));
  }
  const std::string json = report.Dump();

  if (const std::string path = flags.GetString("out", ""); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    out << json << '\n';
    if (!out.good()) {
      return Fail(Status::IOError("cannot write --out file: " + path));
    }
  } else {
    std::cout << json << std::endl;
  }
  std::fprintf(
      stderr,
      "%llu requests in %.2fs (%.1f qps): %llu ok, %llu shed, "
      "%llu deadline-exceeded, %llu errors; p50 %.2fms p95 %.2fms "
      "p99 %.2fms\n",
      static_cast<unsigned long long>(total.requests), measured_s,
      measured_s > 0 ? static_cast<double>(total.requests) / measured_s : 0.0,
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.shed),
      static_cast<unsigned long long>(total.deadline_exceeded),
      static_cast<unsigned long long>(total.other_errors),
      Percentile(total.latencies_ms, 50), Percentile(total.latencies_ms, 95),
      Percentile(total.latencies_ms, 99));

  if (!transport.ok()) return Fail(transport);
  return 0;
}

int Main(int argc, char** argv) {
  const FlagRegistry registry = LoadgenFlags();
  Result<ParsedFlags> parsed = registry.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->help_requested) {
    std::printf("%s",
                registry.HelpText("usage: privim_loadgen --target "
                                  "HOST:PORT [--connections N] "
                                  "[--duration-s S] [--out FILE] [--flags]")
                    .c_str());
    return 0;
  }
  return Run(parsed->flags);
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) { return privim::Main(argc, argv); }
