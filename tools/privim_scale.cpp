// privim_scale — large-graph smoke driver for the partitioned substrate,
// reporting stage timings, the graph fingerprint and kernel memory
// high-water as JSON.
//
//   privim_scale --nodes 1000000 --generator ba --threads 4 --out scale.json
//
// The tool exercises exactly the path the 1M/10M benches measure: parallel
// generation (BA copy-model or SBM) -> theta-independent RWR subgraph
// sampling over sharded visit maps -> optional sketch-index build. Every
// stage is timed, and the report carries:
//
//   * `fingerprint` — ckpt::FingerprintGraph of the generated graph. The
//     generators and the parallel CSR assembly are bit-identical at every
//     thread count, so running the tool twice with different --threads and
//     diffing this field is a complete end-to-end determinism check (CI
//     does exactly that in the large-graph smoke step).
//   * `mem_hwm_bytes` / `mem_rss_bytes` — VmHWM / VmRSS from
//     /proc/self/status, the evidence behind the linear-memory assertion:
//     CI checks hwm_bytes <= budget_per_arc * arcs + fixed slack.
//   * `csr_bytes` — the bytes of the CSR arrays the graph holds
//     (Graph::CsrBytes): one direction for the undirected generators,
//     whose in-CSR is their out-CSR.
//
// Exit status: 0 on success, 1 on any stage failure.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "privim/ckpt/io.h"
#include "privim/common/flag_registry.h"
#include "privim/common/flags.h"
#include "privim/common/mem_stats.h"
#include "privim/common/rng.h"
#include "privim/common/status.h"
#include "privim/common/thread_pool.h"
#include "privim/common/timer.h"
#include "privim/graph/generators.h"
#include "privim/graph/graph.h"
#include "privim/graph/partitioned.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/sampling/rwr_sampler.h"
#include "privim/serve/json.h"

namespace privim {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

FlagRegistry ScaleFlags() {
  FlagRegistry registry;
  registry
      .AddInt("nodes", 1000000, "graph size")
      .AddString("generator", "ba", "ba (copy model) or sbm")
      .AddInt("edges-per-node", 8, "BA attachment count m")
      .AddInt("blocks", 64, "SBM block count")
      .AddDouble("p-in", 0.0, "SBM within-block probability; 0 = pick a "
                              "value that yields ~8 arcs per node")
      .AddDouble("p-out", 0.0,
                 "SBM cross-block probability; 0 = p-in / 1024 (cross-block "
                 "candidates outnumber within-block ones ~blocks-fold, so "
                 "the divisor must be ~blocks * 16 to keep cross arcs a "
                 "small fraction of each node's degree)")
      .AddInt("seed", 7, "generator seed")
      .AddInt("threads", 0, "thread-pool size; 0 = hardware concurrency")
      .AddInt("samples", 64, "expected RWR start count (sampling_rate = "
                             "samples / nodes); 0 skips the sampling stage")
      .AddInt("subgraph-size", 25, "RWR subgraph size n")
      .AddBool("sketch", false, "also build a sampled sketch index")
      .AddInt("sketches", 256, "RR sets for --sketch")
      .AddString("out", "", "report file; empty writes stdout");
  return registry;
}

int Run(const Flags& flags) {
  const int64_t nodes = flags.GetInt("nodes", 1000000);
  const int64_t threads = flags.GetInt("threads", 0);
  const std::string generator = flags.GetString("generator", "ba");
  SetGlobalThreadPoolSize(static_cast<size_t>(threads));

  serve::JsonValue report = serve::JsonValue::Object();
  report.Set("nodes", serve::JsonValue::Int(nodes));
  report.Set("generator", serve::JsonValue::Str(generator));
  report.Set("threads",
             serve::JsonValue::Int(
                 static_cast<int64_t>(GlobalThreadPool().num_threads())));
  const ShardLayout layout = ShardLayout::For(nodes);
  report.Set("shards", serve::JsonValue::Int(layout.num_shards));

  // --- Generate ----------------------------------------------------------
  WallTimer timer;
  Result<Graph> generated = [&]() -> Result<Graph> {
    const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
    if (generator == "ba") {
      return BarabasiAlbertParallel(nodes, flags.GetInt("edges-per-node", 8),
                                    seed);
    }
    if (generator == "sbm") {
      const int64_t blocks = flags.GetInt("blocks", 64);
      // Default densities: ~8 within-block arcs per node plus a sparse
      // cross-block fringe (see the --p-out help text for the divisor).
      double p_in = flags.GetDouble("p-in", 0.0);
      double p_out = flags.GetDouble("p-out", 0.0);
      if (p_in <= 0.0) {
        const double block_size =
            static_cast<double>(nodes) / static_cast<double>(blocks);
        p_in = block_size > 1.0 ? 8.0 / block_size : 1.0;
        if (p_in > 1.0) p_in = 1.0;
      }
      if (p_out <= 0.0) p_out = p_in / 1024.0;
      return StochasticBlockModel(nodes, blocks, p_in, p_out, seed);
    }
    return Status::InvalidArgument("unknown --generator: " + generator);
  }();
  if (!generated.ok()) return Fail(generated.status());
  const Graph graph = std::move(generated).value();
  report.Set("generate_s", serve::JsonValue::Number(timer.ElapsedSeconds()));
  report.Set("arcs", serve::JsonValue::Int(graph.num_arcs()));

  timer.Reset();
  const uint64_t fingerprint = ckpt::FingerprintGraph(graph);
  report.Set("fingerprint_s",
             serve::JsonValue::Number(timer.ElapsedSeconds()));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  report.Set("fingerprint", serve::JsonValue::Str(hex));

  // --- Sample ------------------------------------------------------------
  const int64_t samples = flags.GetInt("samples", 64);
  if (samples > 0) {
    RwrSamplerOptions options;
    options.subgraph_size = flags.GetInt("subgraph-size", 25);
    options.sampling_rate =
        std::min(1.0, static_cast<double>(samples) / static_cast<double>(nodes));
    Status valid = options.Validate();
    if (!valid.ok()) return Fail(valid);
    timer.Reset();
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)) + 1);
    Result<SubgraphContainer> container =
        ExtractSubgraphsRwr(graph, options, &rng);
    if (!container.ok()) return Fail(container.status());
    report.Set("sample_s", serve::JsonValue::Number(timer.ElapsedSeconds()));
    report.Set("subgraphs",
               serve::JsonValue::Int(static_cast<int64_t>(container->size())));
  }

  // --- Sketch ------------------------------------------------------------
  if (flags.GetBool("sketch", false)) {
    SketchIndexOptions options;
    options.num_sketches = flags.GetInt("sketches", 256);
    options.max_steps = 1;
    timer.Reset();
    Result<std::unique_ptr<SketchIndex>> index =
        SketchIndex::Build(graph, options);
    if (!index.ok()) return Fail(index.status());
    report.Set("sketch_s", serve::JsonValue::Number(timer.ElapsedSeconds()));
    Result<SketchTopKResult> topk = index.value()->TopK(8);
    if (!topk.ok()) return Fail(topk.status());
    report.Set("sketch_topk_spread", serve::JsonValue::Number(topk->spread));
  }

  // --- Memory ------------------------------------------------------------
  UpdateGraphMemGauges();
  const MemStats mem = ReadMemStats();
  report.Set("mem_rss_bytes", serve::JsonValue::Int(mem.rss_bytes));
  report.Set("mem_hwm_bytes", serve::JsonValue::Int(mem.hwm_bytes));
  report.Set("csr_bytes", serve::JsonValue::Int(graph.CsrBytes()));
  if (graph.num_arcs() > 0 && mem.hwm_bytes > 0) {
    report.Set("hwm_bytes_per_arc",
               serve::JsonValue::Number(
                   static_cast<double>(mem.hwm_bytes) /
                   static_cast<double>(graph.num_arcs())));
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
  std::fprintf(stderr, "%lld nodes, %lld arcs, fingerprint %s\n",
               static_cast<long long>(nodes),
               static_cast<long long>(graph.num_arcs()), hex);
  return 0;
}

int Main(int argc, char** argv) {
  const FlagRegistry registry = ScaleFlags();
  Result<ParsedFlags> parsed = registry.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->help_requested) {
    std::printf("%s", registry
                          .HelpText("usage: privim_scale --nodes N "
                                    "[--generator ba|sbm] [--threads T] "
                                    "[--sketch] [--out FILE]")
                          .c_str());
    return 0;
  }
  return Run(parsed->flags);
}

}  // namespace
}  // namespace privim

int main(int argc, char** argv) { return privim::Main(argc, argv); }
