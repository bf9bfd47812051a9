#include "privim/sampling/rwr_sampler.h"

#include <optional>
#include <vector>

#include "privim/common/thread_pool.h"
#include "privim/graph/partitioned.h"
#include "privim/graph/traversal.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"
#include "privim/sampling/random_walk.h"

namespace privim {
namespace {

// Per-walk observability tallies, kept in task-local storage and folded into
// the global counters on the calling thread after the join — the totals are
// therefore identical at every thread count, like the sampler output itself.
struct WalkTally {
  WalkCounts walk;             // tau-restarts, dead ends (no in-ball node)
  int64_t shards_touched = 0;  // shards the r-hop ball entered
  bool ball_too_small = false;
  bool completed = false;
};

// Walks are grouped into this many fixed chunks so each chunk can reuse one
// ShardedVisitMap and one WalkScratch across its walks (an epoch bump per
// walk instead of an O(num_nodes) distance clear). The count is independent
// of the pool size, and walk results are keyed by start index anyway, so the
// container stays bit-identical at every thread count.
constexpr size_t kWalkChunks = 64;

}  // namespace

Status RwrSamplerOptions::Validate() const {
  if (subgraph_size < 2) {
    return Status::InvalidArgument("subgraph_size must be >= 2");
  }
  if (!(restart_probability >= 0.0 && restart_probability < 1.0)) {
    return Status::InvalidArgument("restart_probability must be in [0, 1)");
  }
  if (!(sampling_rate > 0.0 && sampling_rate <= 1.0)) {
    return Status::InvalidArgument("sampling_rate must be in (0, 1]");
  }
  if (walk_length < 1) {
    return Status::InvalidArgument("walk_length must be >= 1");
  }
  if (hop_limit < 1) return Status::InvalidArgument("hop_limit must be >= 1");
  return Status::OK();
}

Result<SubgraphContainer> ExtractSubgraphsRwr(const Graph& graph,
                                              const RwrSamplerOptions& options,
                                              Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  obs::TraceSpan span("sampling/rwr_extract");

  // Every start node gets its own RNG stream derived from two base seeds
  // drawn serially from the caller's generator, so walks are independent of
  // each other and of scheduling: the container is bit-identical at any
  // thread count.
  const uint64_t select_seed = rng->Next();
  const uint64_t walk_seed = rng->Next();

  std::vector<NodeId> starts;
  for (NodeId v0 = 0; v0 < graph.num_nodes(); ++v0) {
    Rng select = SplitRng(select_seed, static_cast<uint64_t>(v0));
    if (!select.NextBernoulli(options.sampling_rate)) continue;
    if (graph.OutDegree(v0) + graph.InDegree(v0) == 0) continue;
    starts.push_back(v0);
  }

  std::vector<std::optional<Subgraph>> extracted(starts.size());
  std::vector<std::optional<Status>> errors(starts.size());
  std::vector<WalkTally> tallies(starts.size());
  const WalkShape shape{options.subgraph_size, options.restart_probability,
                        options.walk_length};
  const auto run_walk = [&](size_t task, ShardedVisitMap* visits,
                            WalkScratch* scratch) {
    const NodeId v0 = starts[task];
    WalkTally& tally = tallies[task];
    Rng task_rng = SplitRng(walk_seed, static_cast<uint64_t>(v0));

    // N_r(v0): membership map for the r-hop constraint of Alg. 1 line 10.
    // The walk moves on the underlying undirected structure so directed
    // graphs (whose sinks would otherwise strand the walk) sample cleanly.
    // Ball distances live in the sharded visit map: the walk touches only
    // the shards it enters, never an O(num_nodes) array.
    const std::vector<NodeId> ball =
        UndirectedRHopBall(graph, v0, options.hop_limit, visits);
    tally.shards_touched = visits->shards_touched();
    if (static_cast<int64_t>(ball.size()) < options.subgraph_size) {
      tally.ball_too_small = true;
      return;
    }

    const bool complete = WalkWithRestart(
        graph, v0, shape, [visits](NodeId u) { return visits->Get(u) != -1; },
        &task_rng, scratch, &tally.walk);
    if (!complete) return;
    Result<Subgraph> sub = InducedSubgraph(graph, scratch->nodes);
    if (sub.ok()) {
      extracted[task].emplace(std::move(sub).value());
      tally.completed = true;
    } else {
      errors[task] = sub.status();
    }
  };
  const ShardLayout layout = ShardLayout::For(graph.num_nodes());
  GlobalThreadPool().ParallelForChunks(
      starts.size(), std::min(starts.size(), kWalkChunks),
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        ShardedVisitMap visits(layout);
        WalkScratch scratch;
        for (size_t task = begin; task < end; ++task) {
          run_walk(task, &visits, &scratch);
        }
      });

  WalkTally total;
  int64_t completed = 0, rejected_ball = 0;
  SubgraphContainer container;
  for (size_t task = 0; task < starts.size(); ++task) {
    if (errors[task].has_value()) return *errors[task];
    total.walk.restarts += tallies[task].walk.restarts;
    total.walk.dead_ends += tallies[task].walk.dead_ends;
    total.shards_touched += tallies[task].shards_touched;
    completed += tallies[task].completed ? 1 : 0;
    rejected_ball += tallies[task].ball_too_small ? 1 : 0;
    if (extracted[task].has_value()) {
      container.Add(std::move(*extracted[task]));
    }
  }
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  static obs::Counter* walks =
      metrics.GetCounter("sampling.rwr.walks_started");
  static obs::Counter* walks_completed =
      metrics.GetCounter("sampling.rwr.walks_completed");
  static obs::Counter* restarts = metrics.GetCounter("sampling.rwr.restarts");
  static obs::Counter* dead_ends =
      metrics.GetCounter("sampling.rwr.dead_ends");
  static obs::Counter* ball_rejections =
      metrics.GetCounter("sampling.rwr.ball_too_small");
  static obs::Counter* shards_touched =
      metrics.GetCounter("sampling.rwr.shards_touched");
  walks->Increment(starts.size());
  shards_touched->Increment(static_cast<uint64_t>(total.shards_touched));
  walks_completed->Increment(static_cast<uint64_t>(completed));
  restarts->Increment(static_cast<uint64_t>(total.walk.restarts));
  dead_ends->Increment(static_cast<uint64_t>(total.walk.dead_ends));
  ball_rejections->Increment(static_cast<uint64_t>(rejected_ball));
  return container;
}

}  // namespace privim
