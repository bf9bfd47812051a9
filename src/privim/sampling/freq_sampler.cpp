#include "privim/sampling/freq_sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "privim/common/thread_pool.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"
#include "privim/sampling/random_walk.h"

namespace privim {
namespace {

// Start nodes are processed in fixed-width waves; walks inside a wave run in
// parallel against the frequencies committed before the wave. The width is a
// constant — never the worker count — so the wave partition, and therefore
// the sampler's output, is identical at every thread count.
constexpr int64_t kWaveWidth = 32;

// e_v of Eq. 9, which depends on f_v only through min(f_v, M): 1/(f+1)^mu
// below the cap M, 0 from it on. One byte per node holds that level and a
// table holds e at each level, so a walk step reads a byte and a table entry
// instead of calling std::pow. A byte stops at kExactLevel: a node whose
// level reaches it (possible only when M >= 255) reads its own e from
// exact_, sized on first need. Every e comes from the same expression, so
// each weight is the double the formula gives.
class Eligibility {
 public:
  Eligibility(const std::vector<int64_t>& frequency, int64_t threshold,
              double decay)
      : threshold_(threshold), decay_(decay), level_(frequency.size()) {
    table_.resize(std::min<int64_t>(threshold, kExactLevel - 1) + 1);
    for (size_t f = 0; f < table_.size(); ++f) {
      table_[f] = Of(static_cast<int64_t>(f));
    }
    for (size_t v = 0; v < frequency.size(); ++v) {
      Set(static_cast<NodeId>(v), frequency[v]);
    }
  }

  double operator()(NodeId v) const {
    const uint8_t level = level_[v];
    return level < kExactLevel ? table_[level] : exact_[v];
  }

  // Records that v's frequency is now f. Call only while no walk reads.
  void Set(NodeId v, int64_t f) {
    const int64_t level = std::min(f, threshold_);
    if (level < kExactLevel) {
      level_[v] = static_cast<uint8_t>(level);
      return;
    }
    if (exact_.empty()) exact_.resize(level_.size());
    level_[v] = kExactLevel;
    exact_[v] = Of(f);
  }

 private:
  static constexpr uint8_t kExactLevel = 255;

  double Of(int64_t f) const {
    if (f >= threshold_) return 0.0;
    return 1.0 / std::pow(static_cast<double>(f) + 1.0, decay_);
  }

  int64_t threshold_;
  double decay_;
  std::vector<uint8_t> level_;
  std::vector<double> table_;
  std::vector<double> exact_;
};

// True when a neighbour of v lies in `nodes` (ascending ids).
bool HasNeighborIn(const Graph& graph, NodeId v,
                   std::span<const NodeId> nodes) {
  const auto in_nodes = [nodes](NodeId u) {
    return std::binary_search(nodes.begin(), nodes.end(), u);
  };
  const auto out = graph.OutNeighbors(v);
  const auto in = graph.InNeighbors(v);
  return std::any_of(out.begin(), out.end(), in_nodes) ||
         std::any_of(in.begin(), in.end(), in_nodes);
}

}  // namespace

Status FreqSamplingOptions::Validate() const {
  if (subgraph_size < 2) {
    return Status::InvalidArgument("subgraph_size must be >= 2");
  }
  if (!(restart_probability >= 0.0 && restart_probability < 1.0)) {
    return Status::InvalidArgument("restart_probability must be in [0, 1)");
  }
  if (!(decay >= 0.0) || !std::isfinite(decay)) {
    return Status::InvalidArgument("decay must be finite and >= 0");
  }
  if (!(sampling_rate > 0.0 && sampling_rate <= 1.0)) {
    return Status::InvalidArgument("sampling_rate must be in (0, 1]");
  }
  if (walk_length < 1) {
    return Status::InvalidArgument("walk_length must be >= 1");
  }
  if (frequency_threshold < 1) {
    return Status::InvalidArgument("frequency_threshold must be >= 1");
  }
  return Status::OK();
}

Result<std::vector<Subgraph>> FreqSampling(const Graph& graph,
                                           const FreqSamplingOptions& options,
                                           std::vector<int64_t>* frequency,
                                           Rng* rng) {
  // Every node is a start, keyed by its own id.
  std::vector<NodeId> every_node(static_cast<size_t>(graph.num_nodes()));
  std::iota(every_node.begin(), every_node.end(), NodeId{0});
  return BoundaryFreqSampling(graph, every_node, options, frequency, rng);
}

Result<std::vector<Subgraph>> BoundaryFreqSampling(
    const Graph& graph, std::span<const NodeId> boundary,
    const FreqSamplingOptions& options, std::vector<int64_t>* frequency,
    Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (static_cast<int64_t>(frequency->size()) != graph.num_nodes()) {
    return Status::InvalidArgument("frequency vector size mismatch");
  }
  if (std::any_of(frequency->begin(), frequency->end(),
                  [](int64_t f) { return f < 0; })) {
    return Status::InvalidArgument("frequency entries must be >= 0");
  }
  obs::TraceSpan span("sampling/freq_sampling");
  const int64_t threshold = options.frequency_threshold;
  Eligibility eligibility(*frequency, threshold, options.decay);
  const WalkShape shape{options.subgraph_size, options.restart_probability,
                        options.walk_length};
  // One walk attempt from v0 (Alg. 3 inner loop) against the committed
  // frequencies; true when it reached n unique nodes.
  const auto walk = [&](NodeId v0, Rng* walk_rng, WalkScratch* scratch,
                        WalkCounts* tally) {
    return WalkWithRestart(
        graph, v0, shape, [&](NodeId u) { return eligibility(u); }, walk_rng,
        scratch, tally);
  };
  // Walk tallies are task-local and folded in wave-commit order, so the
  // totals are identical at every thread count. A walk's dead ends are the
  // steps where every neighbour hit the M cap.
  WalkCounts total;
  int64_t walks_started = 0, saturated_starts = 0, stale_walks = 0,
          reruns = 0;

  // Per-start RNG streams (see rwr_sampler.cpp): walks inside a wave are
  // independent of scheduling, and the commit phase below runs in start
  // order, so the output is bit-identical at every thread count.
  const uint64_t select_seed = rng->Next();
  const uint64_t walk_seed = rng->Next();
  const uint64_t rerun_seed = rng->Next();

  struct Start {
    NodeId node;
    uint64_t rank;
  };
  std::vector<Subgraph> subgraphs;
  std::vector<Start> starts;
  std::vector<std::vector<NodeId>> walks;
  std::vector<WalkCounts> tallies;
  // One scratch per pool chunk, reused across waves; chunk 0 (the calling
  // thread) also serves the serial reruns.
  std::vector<WalkScratch> scratch(
      std::max<size_t>(1, GlobalThreadPool().num_threads()));
  const int64_t num_starts = static_cast<int64_t>(boundary.size());
  for (int64_t wave_begin = 0; wave_begin < num_starts;
       wave_begin += kWaveWidth) {
    const int64_t wave_end = std::min(num_starts, wave_begin + kWaveWidth);
    starts.clear();
    for (int64_t rank = wave_begin; rank < wave_end; ++rank) {
      const NodeId v0 = boundary[rank];
      Rng select = SplitRng(select_seed, static_cast<uint64_t>(rank));
      if (!select.NextBernoulli(options.sampling_rate)) continue;
      if ((*frequency)[v0] >= threshold) {
        ++saturated_starts;  // SCS cap hit before the walk even started
        continue;
      }
      if (!HasNeighborIn(graph, v0, boundary)) continue;
      starts.push_back({v0, static_cast<uint64_t>(rank)});
    }
    if (starts.empty()) continue;
    walks_started += static_cast<int64_t>(starts.size());

    // Frequencies are frozen for the duration of the wave: tasks only read
    // them, commits happen after the join.
    walks.assign(starts.size(), {});
    tallies.assign(starts.size(), {});
    GlobalThreadPool().ParallelForChunks(
        starts.size(), scratch.size(),
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            Rng task_rng = SplitRng(walk_seed, starts[i].rank);
            if (walk(starts[i].node, &task_rng, &scratch[chunk],
                     &tallies[i])) {
              walks[i] = scratch[chunk].nodes;
            }
          }
        });
    for (const WalkCounts& tally : tallies) {
      total.restarts += tally.restarts;
      total.dead_ends += tally.dead_ends;
    }

    // Commit in start order. The SCS cap (Sec. IV-A) stays hard: a walk is
    // only committed while every member node is strictly below M, so no
    // node's frequency can ever exceed M. A walk invalidated by an earlier
    // commit in the same wave is re-run serially against the live
    // frequencies — exactly the legacy serial behavior for that start node.
    for (size_t i = 0; i < starts.size(); ++i) {
      if (walks[i].empty()) continue;
      bool fresh = true;
      for (NodeId v : walks[i]) {
        if ((*frequency)[v] >= threshold) {
          fresh = false;
          break;
        }
      }
      if (!fresh) {
        ++stale_walks;
        if ((*frequency)[starts[i].node] >= threshold) continue;
        ++reruns;
        Rng rerun_rng = SplitRng(rerun_seed, starts[i].rank);
        if (!walk(starts[i].node, &rerun_rng, &scratch[0], &total)) continue;
        walks[i] = scratch[0].nodes;
      }
      Result<Subgraph> sub = InducedSubgraph(graph, walks[i]);
      if (!sub.ok()) return sub.status();
      // Alg. 3 line 26: frequencies update only for completed subgraphs.
      for (NodeId v : walks[i]) eligibility.Set(v, ++(*frequency)[v]);
      subgraphs.push_back(std::move(sub).value());
    }
  }

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  static obs::Counter* started =
      registry.GetCounter("sampling.freq.walks_started");
  static obs::Counter* committed =
      registry.GetCounter("sampling.freq.subgraphs_committed");
  static obs::Counter* restarts =
      registry.GetCounter("sampling.freq.restarts");
  static obs::Counter* saturated_steps_counter =
      registry.GetCounter("sampling.freq.saturated_steps");
  static obs::Counter* saturated_starts_counter =
      registry.GetCounter("sampling.freq.cap_saturated_starts");
  static obs::Counter* stale =
      registry.GetCounter("sampling.freq.stale_walks");
  static obs::Counter* rerun_counter =
      registry.GetCounter("sampling.freq.reruns");
  started->Increment(static_cast<uint64_t>(walks_started));
  committed->Increment(subgraphs.size());
  restarts->Increment(static_cast<uint64_t>(total.restarts));
  saturated_steps_counter->Increment(
      static_cast<uint64_t>(total.dead_ends));
  saturated_starts_counter->Increment(static_cast<uint64_t>(saturated_starts));
  stale->Increment(static_cast<uint64_t>(stale_walks));
  rerun_counter->Increment(static_cast<uint64_t>(reruns));
  return subgraphs;
}

}  // namespace privim
