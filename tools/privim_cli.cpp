// privim_cli — run the PrivIM pipeline on real edge-list data from the
// command line.
//
// Subcommands:
//   train     Train a DP GNN on a graph; write the (releasable) model.
//   select    Score a graph with a trained model, print the top-k seeds.
//   evaluate  Influence spread of a seed set under IC.
//   celf      Non-private CELF ground truth.
//   sketch    Build (and optionally query) a RIS sketch index.
//   account   Standalone privacy accounting (Theorem 3 + Theorem 1).
//
// Flags are declared in per-subcommand FlagRegistry instances
// (common/flag_registry.h): `privim_cli <subcommand> --help` prints the
// generated reference, unknown flags are rejected, and the pre-registry
// spellings (--n, --M, --q, --batch, --lr, --clip) keep working as
// deprecated aliases. All option validation lives in
// PrivImOptions::Validate(); this front end only maps Status to process
// exit codes — library code never exits.
//
// Node ids are densely remapped on load (the mapping is stable for a given
// file); seeds are reported in remapped ids.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "privim/common/flag_registry.h"
#include "privim/common/flags.h"
#include "privim/common/thread_pool.h"
#include "privim/core/pipeline.h"
#include "privim/diffusion/ic_model.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/graph_io.h"
#include "privim/im/celf.h"
#include "privim/im/seed_selection.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/im/spread_oracle.h"
#include "privim/nn/infer/engine.h"
#include "privim/obs/export.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// --- flag registries -------------------------------------------------------

/// Flags every subcommand accepts.
FlagRegistry CommonFlags() {
  FlagRegistry registry;
  registry
      .AddInt("threads", 0,
              "global worker pool size; 0 = hardware concurrency, 1 = serial "
              "(PRIVIM_THREADS env fallback)")
      .AddString("metrics-out", "",
                 "write combined metrics + trace JSON (chrome://tracing "
                 "format) to this file at exit");
  return registry;
}

FlagRegistry GraphFlags() {
  FlagRegistry registry;
  registry.AddString("graph", "", "edge-list file to load (required)")
      .AddBool("undirected", false, "treat input edges as undirected");
  return registry;
}

FlagRegistry TrainFlags() {
  FlagRegistry registry;
  registry.Include(GraphFlags());
  registry
      .AddInt("subgraph-size", 25, "RWR subgraph size n", "n")
      .AddInt("freq-threshold", 6, "SCS occurrence threshold M", "M")
      .AddDouble("sampling-rate", 0.0,
                 "root sampling rate q; <= 0 means 256/|V|", "q")
      .AddInt("iterations", 40, "training iterations T")
      .AddInt("batch-size", 16, "DP-SGD batch size B", "batch")
      .AddDouble("learning-rate", 0.1, "SGD step size eta", "lr")
      .AddDouble("clip-bound", 0.2, "per-sample gradient clip bound C",
                 "clip")
      .AddDouble("lambda", 0.7, "influence-loss mixing weight")
      .AddInt("k", 50, "seed-set size")
      .AddDouble("epsilon", 4.0,
                 "target epsilon; <= 0 or inf trains without noise")
      .AddDouble("delta", 0.0, "target delta; <= 0 means 1/|V_train|")
      .AddString("gnn", "grat", "model architecture: gcn|sage|gat|grat|gin")
      .AddString("model", "privim.model", "output path for the trained model")
      .AddInt("seed", 42, "RNG seed (runs are bit-reproducible in it)")
      .AddString("checkpoint-dir", "",
                 "snapshot directory; empty disables checkpointing")
      .AddInt("checkpoint-every", 1, "snapshot every N iterations")
      .AddInt("checkpoint-keep", 3, "snapshots retained on disk")
      .AddBool("resume", false,
               "resume from the latest snapshot in --checkpoint-dir");
  registry.Include(CommonFlags());
  return registry;
}

FlagRegistry SelectFlags() {
  FlagRegistry registry;
  registry.Include(GraphFlags());
  registry.AddString("model", "privim.model", "trained model to score with")
      .AddInt("k", 50, "seed-set size");
  registry.Include(CommonFlags());
  return registry;
}

FlagRegistry EvaluateFlags() {
  FlagRegistry registry;
  registry.Include(GraphFlags());
  registry
      .AddString("seeds", "", "comma-separated seed node ids (required)")
      .AddInt("steps", 1, "diffusion steps j; -1 runs to quiescence")
      .AddInt("simulations", 1000,
              "Monte-Carlo repetitions (weighted graphs only)")
      .AddInt("seed", 42, "RNG seed for Monte-Carlo estimation");
  registry.Include(CommonFlags());
  return registry;
}

FlagRegistry CelfFlags() {
  FlagRegistry registry;
  registry.Include(GraphFlags());
  registry.AddInt("k", 50, "seed-set size")
      .AddInt("steps", 1, "diffusion steps j; -1 runs to quiescence");
  registry.Include(CommonFlags());
  return registry;
}

FlagRegistry SketchFlags() {
  FlagRegistry registry;
  registry.Include(GraphFlags());
  registry
      .AddString("out", "sketch.privimsx",
                 "output path for the built index (atomic write)")
      .AddInt("rr-sets", 4000,
              "RR sets to sample on a weighted graph (unit-weight graphs "
              "use one exhaustive sketch per node instead)")
      .AddInt("steps", 1,
              "diffusion step bound baked into the index; -1 = to "
              "quiescence")
      .AddInt("seed", 42, "base RNG seed for the sampled mode")
      .AddInt("topk", 0,
              "after building, run a top-k sweep over the index and print "
              "the seeds (0 skips)");
  registry.Include(CommonFlags());
  return registry;
}

FlagRegistry AccountFlags() {
  FlagRegistry registry;
  registry.AddInt("m", 300, "container size (number of subgraphs)")
      .AddInt("B", 16, "batch size")
      .AddInt("Ng", 6, "occurrence bound N_g*")
      .AddDouble("sigma", 1.0, "noise multiplier")
      .AddInt("T", 40, "training iterations")
      .AddDouble("delta", 1e-4, "target delta");
  registry.Include(CommonFlags());
  return registry;
}

// --- subcommands -----------------------------------------------------------

Result<Graph> LoadGraph(const Flags& flags) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    return Status::InvalidArgument("--graph FILE is required");
  }
  return LoadEdgeList(path, flags.GetBool("undirected", false));
}

std::vector<NodeId> ParseSeeds(const std::string& csv) {
  std::vector<NodeId> seeds;
  size_t start = 0;
  while (start < csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string token = csv.substr(start, comma - start);
    if (!token.empty()) {
      seeds.push_back(static_cast<NodeId>(std::strtol(token.c_str(),
                                                      nullptr, 10)));
    }
    start = comma + 1;
  }
  return seeds;
}

Result<PrivImOptions> OptionsFromFlags(const Flags& flags) {
  PrivImOptions options;
  options.subgraph_size = flags.GetInt("subgraph-size", 25);
  options.frequency_threshold = flags.GetInt("freq-threshold", 6);
  options.sampling_rate = flags.GetDouble("sampling-rate", 0.0);
  options.iterations = flags.GetInt("iterations", 40);
  options.batch_size = flags.GetInt("batch-size", 16);
  options.learning_rate =
      static_cast<float>(flags.GetDouble("learning-rate", 0.1));
  options.clip_bound = static_cast<float>(flags.GetDouble("clip-bound", 0.2));
  options.loss.lambda = static_cast<float>(flags.GetDouble("lambda", 0.7));
  options.seed_set_size = flags.GetInt("k", 50);
  options.epsilon = flags.GetDouble("epsilon", 4.0);
  options.delta = flags.GetDouble("delta", 0.0);
  Result<GnnKind> kind = GnnKindFromString(flags.GetString("gnn", "grat"));
  if (!kind.ok()) return kind.status();
  options.gnn.kind = kind.value();

  options.checkpoint_dir = flags.GetString("checkpoint-dir", "");
  options.checkpoint_every = flags.GetInt("checkpoint-every", 1);
  options.checkpoint_keep = flags.GetInt("checkpoint-keep", 3);
  options.resume = flags.GetBool("resume", false);
  // One validation path for CLI, engine and library callers alike.
  PRIVIM_RETURN_NOT_OK(options.Validate());
  return options;
}

int CmdTrain(const Flags& flags) {
  Result<Graph> graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("loaded graph: %lld nodes, %lld arcs\n",
              static_cast<long long>(graph->num_nodes()),
              static_cast<long long>(graph->num_arcs()));

  const Result<PrivImOptions> options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());
  // Training and scoring on the same graph here; callers wanting a held-out
  // evaluation should pre-split their edge list.
  Result<PrivImResult> result = RunPrivIm(
      graph.value(), graph.value(), options.value(),
      static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!result.ok()) return Fail(result.status());

  if (result->resumed_from_iteration > 0) {
    std::printf("resumed at iteration %lld of %lld\n",
                static_cast<long long>(result->resumed_from_iteration),
                static_cast<long long>(options->iterations));
  }
  std::printf("container: %lld subgraphs, occurrence bound %lld\n",
              static_cast<long long>(result->container_size),
              static_cast<long long>(result->occurrence_bound));
  std::printf("privacy: sigma=%.4f achieved epsilon=%.4f\n",
              result->noise_multiplier, result->achieved_epsilon);
  std::printf("training loss: %.4f -> %.4f\n",
              result->train_stats.mean_loss_first,
              result->train_stats.mean_loss_last);

  const std::string model_path = flags.GetString("model", "privim.model");
  if (Status saved = SaveGnnModel(*result->model, model_path); !saved.ok()) {
    return Fail(saved);
  }
  std::printf("model written to %s\n", model_path.c_str());
  std::printf("top-%lld seeds:",
              static_cast<long long>(options->seed_set_size));
  for (NodeId v : result->seeds) std::printf(" %d", v);
  std::printf("\n");
  return 0;
}

int CmdSelect(const Flags& flags) {
  Result<Graph> graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  Result<std::unique_ptr<GnnModel>> model =
      LoadGnnModel(flags.GetString("model", "privim.model"));
  if (!model.ok()) return Fail(model.status());

  // Scoring reports every failure as a Status, so a model the compiled
  // program cannot run surfaces as a clean error, not an assertion.
  Result<Tensor> scores = infer::ScoreGraph(*model.value(), graph.value());
  if (!scores.ok()) return Fail(scores.status());
  const std::vector<NodeId> seeds =
      TopKSeeds(scores.value(), flags.GetInt("k", 50));
  for (NodeId v : seeds) std::printf("%d\n", v);
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  Result<Graph> graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  const std::vector<NodeId> seeds =
      ParseSeeds(flags.GetString("seeds", ""));
  if (seeds.empty()) {
    return Fail(Status::InvalidArgument("--seeds 1,2,3 is required"));
  }
  const int64_t steps = flags.GetInt("steps", 1);
  if (HasUnitWeights(graph.value())) {
    std::printf("%lld\n", static_cast<long long>(DeterministicIcSpread(
                              graph.value(), seeds, steps)));
  } else {
    IcOptions options;
    options.max_steps = steps;
    options.num_simulations = flags.GetInt("simulations", 1000);
    Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
    std::printf("%.2f\n",
                EstimateIcSpread(graph.value(), seeds, options, &rng));
  }
  return 0;
}

int CmdCelf(const Flags& flags) {
  Result<Graph> graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  DeterministicCoverageOracle oracle(graph.value(),
                                     flags.GetInt("steps", 1));
  Result<SeedSelectionResult> result =
      CelfGreedy(oracle, flags.GetInt("k", 50));
  if (!result.ok()) return Fail(result.status());
  std::printf("spread %.0f with seeds:", result->spread);
  for (NodeId v : result->seeds) std::printf(" %d", v);
  std::printf("\n");
  return 0;
}

int CmdSketch(const Flags& flags) {
  Result<Graph> graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status());

  SketchIndexOptions options;
  options.num_sketches = flags.GetInt("rr-sets", 4000);
  options.max_steps = flags.GetInt("steps", 1);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Result<std::unique_ptr<SketchIndex>> index =
      SketchIndex::Build(graph.value(), options);
  if (!index.ok()) return Fail(index.status());

  const std::string out = flags.GetString("out", "sketch.privimsx");
  if (Status saved = index.value()->Save(out); !saved.ok()) {
    return Fail(saved);
  }
  std::printf("sketch index: %lld sketches (%s mode), steps %lld, "
              "%lld bytes -> %s\n",
              static_cast<long long>(index.value()->num_sketches()),
              index.value()->exhaustive() ? "exhaustive" : "sampled",
              static_cast<long long>(index.value()->max_steps()),
              static_cast<long long>(index.value()->SizeBytes()),
              out.c_str());

  if (const int64_t k = flags.GetInt("topk", 0); k > 0) {
    Result<SketchTopKResult> result = index.value()->TopK(k);
    if (!result.ok()) return Fail(result.status());
    std::printf("spread %.0f with seeds:", result->spread);
    for (NodeId v : result->seeds) std::printf(" %d", v);
    std::printf("\n");
  }
  return 0;
}

int CmdAccount(const Flags& flags) {
  SubsampledGaussianConfig config;
  config.container_size = flags.GetInt("m", 300);
  config.batch_size = flags.GetInt("B", 16);
  config.occurrence_bound = flags.GetInt("Ng", 6);
  config.noise_multiplier = flags.GetDouble("sigma", 1.0);
  const int64_t iterations = flags.GetInt("T", 40);
  const double delta = flags.GetDouble("delta", 1e-4);
  const DpGuarantee guarantee = ComputeEpsilon(config, iterations, delta);
  std::printf("epsilon = %.6f (best alpha %.2f) at delta = %g\n",
              guarantee.epsilon, guarantee.best_alpha, delta);
  return 0;
}

// --- dispatch --------------------------------------------------------------

struct Subcommand {
  const char* name;
  const char* summary;
  FlagRegistry (*registry)();
  int (*run)(const Flags&);
};

const Subcommand kSubcommands[] = {
    {"train", "train a DP GNN and write the releasable model", TrainFlags,
     CmdTrain},
    {"select", "score a graph with a trained model, print top-k seeds",
     SelectFlags, CmdSelect},
    {"evaluate", "influence spread of a seed set under IC", EvaluateFlags,
     CmdEvaluate},
    {"celf", "non-private CELF ground truth", CelfFlags, CmdCelf},
    {"sketch", "build (and optionally query) a RIS sketch index",
     SketchFlags, CmdSketch},
    {"account", "standalone privacy accounting", AccountFlags, CmdAccount},
};

int Usage() {
  std::fprintf(stderr, "usage: privim_cli <subcommand> [--flags]\n\n"
                       "Subcommands:\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(stderr, "  %-9s %s\n", sub.name, sub.summary);
  }
  std::fprintf(stderr,
               "\nRun `privim_cli <subcommand> --help` for the flag "
               "reference.\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    Usage();
    return 0;
  }

  const Subcommand* subcommand = nullptr;
  for (const Subcommand& sub : kSubcommands) {
    if (command == sub.name) subcommand = &sub;
  }
  if (subcommand == nullptr) return Usage();

  const FlagRegistry registry = subcommand->registry();
  Result<ParsedFlags> parsed = registry.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Fail(parsed.status());
  if (parsed->help_requested) {
    std::printf("%s", registry
                          .HelpText(std::string("usage: privim_cli ") +
                                    subcommand->name + " [--flags]")
                          .c_str());
    return 0;
  }
  for (const std::string& warning : parsed->warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  const Flags& flags = parsed->flags;

  const Result<int64_t> threads = flags.ValidatedThreads();
  if (!threads.ok()) return Fail(threads.status());
  const Result<std::string> metrics_out = flags.MetricsOutPath();
  if (!metrics_out.ok()) return Fail(metrics_out.status());
  SetGlobalThreadPoolSize(static_cast<size_t>(threads.value()));
  // Tracing is opt-in via --metrics-out; metrics counters are always on
  // (their cost is a few relaxed atomics per operation).
  if (!metrics_out->empty()) obs::SetTracingEnabled(true);

  int rc = subcommand->run(flags);

  if (!metrics_out->empty()) {
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
