// Reference subgraph extraction: the straightforward implementations the
// samplers replaced, kept as test oracles (like dual_path.h keeps the tape
// next to the compiled program).
//
// The library runs one allocation-free walk kernel over a neighbour visitor,
// reads Eq. 9 through an eligibility table, writes induced subgraphs
// straight into CSR, and runs BES on the parent graph. The references below
// do it the plain way:
//
//   * ReferenceUndirectedNeighbors — a merged out/in neighbour vector per
//     call;
//   * ReferenceInducedSubgraph — a hash map and a GraphBuilder sort;
//   * ReferenceFreqSampling — std::pow per candidate, a hash-set visited
//     set, the merged neighbour vector per step;
//   * ReferenceDualStageSampling — BES on a rebuilt boundary graph G_re,
//     with the results remapped to parent ids;
//   * ReferenceExtractSubgraphsRwr / ReferenceSampleUnconstrainedWalks —
//     Alg. 1's and EGN's walk loops written out.
//
// Each one draws the same random numbers and increments the same sampling.*
// counters as the code it replaced, so the tests can demand the same bytes:
// every subgraph's global ids and six CSR arrays, the frequencies, the stage
// counts and the delta of every sampling.* counter.

#ifndef PRIVIM_TESTS_TESTING_REFERENCE_EXTRACTION_H_
#define PRIVIM_TESTS_TESTING_REFERENCE_EXTRACTION_H_

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/thread_pool.h"
#include "privim/graph/graph.h"
#include "privim/graph/partitioned.h"
#include "privim/graph/subgraph.h"
#include "privim/obs/metrics.h"
#include "privim/sampling/dual_stage.h"
#include "privim/sampling/freq_sampler.h"
#include "privim/sampling/rwr_sampler.h"
#include "privim/sampling/subgraph_container.h"
#include "testing/reference_csr.h"

namespace privim {
namespace testing {

/// Out-neighbours of v, then the in-neighbours that are not out-neighbours.
inline std::vector<NodeId> ReferenceUndirectedNeighbors(const Graph& graph,
                                                        NodeId v) {
  const auto out = graph.OutNeighbors(v);
  const auto in = graph.InNeighbors(v);
  std::vector<NodeId> neighbors(out.begin(), out.end());
  for (NodeId u : in) {
    if (!std::binary_search(out.begin(), out.end(), u)) {
      neighbors.push_back(u);
    }
  }
  return neighbors;
}

/// The induced subgraph through a hash map and GraphBuilder.
inline Result<Subgraph> ReferenceInducedSubgraph(
    const Graph& graph, const std::vector<NodeId>& nodes) {
  Subgraph sub;
  std::unordered_map<NodeId, NodeId> global_to_local;
  global_to_local.reserve(nodes.size());
  for (NodeId global : nodes) {
    if (global < 0 || global >= graph.num_nodes()) {
      return Status::OutOfRange("subgraph node out of range: " +
                                std::to_string(global));
    }
    if (global_to_local
            .emplace(global, static_cast<NodeId>(sub.global_ids.size()))
            .second) {
      sub.global_ids.push_back(global);
    }
  }
  GraphBuilder builder(static_cast<int64_t>(sub.global_ids.size()),
                       /*undirected=*/false);
  for (size_t local_src = 0; local_src < sub.global_ids.size(); ++local_src) {
    const NodeId global_src = sub.global_ids[local_src];
    const auto neighbors = graph.OutNeighbors(global_src);
    const auto weights = graph.OutWeights(global_src);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      auto it = global_to_local.find(neighbors[i]);
      if (it == global_to_local.end()) continue;
      PRIVIM_RETURN_NOT_OK(builder.AddEdge(static_cast<NodeId>(local_src),
                                           it->second, weights[i]));
    }
  }
  Result<Graph> local = builder.Build();
  if (!local.ok()) return local.status();
  sub.local = std::move(local).value();
  return sub;
}

namespace reference_internal {

struct FreqWalkTally {
  int64_t restarts = 0;
  int64_t saturated_steps = 0;
};

inline std::vector<NodeId> TryFreqWalk(const Graph& graph,
                                       const FreqSamplingOptions& options,
                                       const std::vector<int64_t>& frequency,
                                       NodeId v0, Rng* rng,
                                       FreqWalkTally* tally) {
  auto eligibility = [&](NodeId v) -> double {
    const int64_t f = frequency[v];
    if (f >= options.frequency_threshold) return 0.0;
    return 1.0 / std::pow(static_cast<double>(f) + 1.0, options.decay);
  };
  std::vector<NodeId> walk_nodes{v0};
  std::unordered_set<NodeId> visited{v0};
  std::vector<NodeId> candidates;
  std::vector<double> weights;
  NodeId current = v0;
  for (int64_t step = 0; step < options.walk_length; ++step) {
    if (rng->NextBernoulli(options.restart_probability)) {
      current = v0;
      ++tally->restarts;
    }
    candidates.clear();
    weights.clear();
    for (NodeId u : ReferenceUndirectedNeighbors(graph, current)) {
      const double e = eligibility(u);
      if (e > 0.0) {
        candidates.push_back(u);
        weights.push_back(e);
      }
    }
    if (candidates.empty()) {
      current = v0;
      ++tally->saturated_steps;
      continue;
    }
    const size_t pick = rng->NextDiscrete(weights);
    if (pick >= candidates.size()) {
      current = v0;
      continue;
    }
    const NodeId next = candidates[pick];
    current = next;
    if (visited.insert(next).second) walk_nodes.push_back(next);
    if (static_cast<int64_t>(walk_nodes.size()) == options.subgraph_size) {
      return walk_nodes;
    }
  }
  return {};
}

// The old UndirectedRHopBall over a ShardedVisitMap: out-arcs, then in-arcs.
inline std::vector<NodeId> UndirectedRHopBall(const Graph& graph,
                                              NodeId source, int r,
                                              ShardedVisitMap* visits) {
  std::vector<NodeId> ball;
  if (source < 0 || source >= graph.num_nodes() || r < 0) return ball;
  visits->NextEpoch();
  std::deque<NodeId> queue;
  visits->Set(source, 0);
  queue.push_back(source);
  ball.push_back(source);
  auto visit = [&](int32_t from_distance, NodeId to) {
    if (visits->Get(to) != -1) return;
    visits->Set(to, from_distance + 1);
    queue.push_back(to);
    ball.push_back(to);
  };
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int32_t du = visits->Get(u);
    if (du >= r) continue;
    for (NodeId v : graph.OutNeighbors(u)) visit(du, v);
    for (NodeId v : graph.InNeighbors(u)) visit(du, v);
  }
  return ball;
}

}  // namespace reference_internal

/// FreqSampling with std::pow, a hash-set visited set and merged neighbour
/// vectors; keyed, waved and counted like the library's.
inline Result<std::vector<Subgraph>> ReferenceFreqSampling(
    const Graph& graph, const FreqSamplingOptions& options,
    std::vector<int64_t>* frequency, Rng* rng) {
  using reference_internal::FreqWalkTally;
  using reference_internal::TryFreqWalk;
  constexpr int64_t kWaveWidth = 32;
  PRIVIM_RETURN_NOT_OK(options.Validate());
  if (static_cast<int64_t>(frequency->size()) != graph.num_nodes()) {
    return Status::InvalidArgument("frequency vector size mismatch");
  }
  FreqWalkTally total;
  int64_t walks_started = 0, saturated_starts = 0, stale_walks = 0,
          reruns = 0;
  const uint64_t select_seed = rng->Next();
  const uint64_t walk_seed = rng->Next();
  const uint64_t rerun_seed = rng->Next();

  std::vector<Subgraph> subgraphs;
  std::vector<NodeId> starts;
  std::vector<std::vector<NodeId>> walks;
  for (int64_t wave_begin = 0; wave_begin < graph.num_nodes();
       wave_begin += kWaveWidth) {
    const int64_t wave_end =
        std::min(graph.num_nodes(), wave_begin + kWaveWidth);
    starts.clear();
    for (NodeId v0 = static_cast<NodeId>(wave_begin); v0 < wave_end; ++v0) {
      Rng select = SplitRng(select_seed, static_cast<uint64_t>(v0));
      if (!select.NextBernoulli(options.sampling_rate)) continue;
      if ((*frequency)[v0] >= options.frequency_threshold) {
        ++saturated_starts;
        continue;
      }
      if (graph.OutDegree(v0) + graph.InDegree(v0) == 0) continue;
      starts.push_back(v0);
    }
    if (starts.empty()) continue;
    walks_started += static_cast<int64_t>(starts.size());
    walks.assign(starts.size(), {});
    std::vector<FreqWalkTally> tallies(starts.size());
    GlobalThreadPool().ParallelFor(starts.size(), [&](size_t i) {
      Rng task_rng = SplitRng(walk_seed, static_cast<uint64_t>(starts[i]));
      walks[i] = TryFreqWalk(graph, options, *frequency, starts[i], &task_rng,
                             &tallies[i]);
    });
    for (const FreqWalkTally& tally : tallies) {
      total.restarts += tally.restarts;
      total.saturated_steps += tally.saturated_steps;
    }
    for (size_t i = 0; i < starts.size(); ++i) {
      if (walks[i].empty()) continue;
      bool fresh = true;
      for (NodeId v : walks[i]) {
        if ((*frequency)[v] >= options.frequency_threshold) {
          fresh = false;
          break;
        }
      }
      if (!fresh) {
        ++stale_walks;
        if ((*frequency)[starts[i]] >= options.frequency_threshold) continue;
        ++reruns;
        Rng rerun_rng = SplitRng(rerun_seed, static_cast<uint64_t>(starts[i]));
        walks[i] = TryFreqWalk(graph, options, *frequency, starts[i],
                               &rerun_rng, &total);
        if (walks[i].empty()) continue;
      }
      Result<Subgraph> sub = ReferenceInducedSubgraph(graph, walks[i]);
      if (!sub.ok()) return sub.status();
      for (NodeId v : walks[i]) ++(*frequency)[v];
      subgraphs.push_back(std::move(sub).value());
    }
  }

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  registry.GetCounter("sampling.freq.walks_started")
      ->Increment(static_cast<uint64_t>(walks_started));
  registry.GetCounter("sampling.freq.subgraphs_committed")
      ->Increment(subgraphs.size());
  registry.GetCounter("sampling.freq.restarts")
      ->Increment(static_cast<uint64_t>(total.restarts));
  registry.GetCounter("sampling.freq.saturated_steps")
      ->Increment(static_cast<uint64_t>(total.saturated_steps));
  registry.GetCounter("sampling.freq.cap_saturated_starts")
      ->Increment(static_cast<uint64_t>(saturated_starts));
  registry.GetCounter("sampling.freq.stale_walks")
      ->Increment(static_cast<uint64_t>(stale_walks));
  registry.GetCounter("sampling.freq.reruns")
      ->Increment(static_cast<uint64_t>(reruns));
  return subgraphs;
}

/// Alg. 3 with BES on a rebuilt boundary graph G_re: its local ids are the
/// ranks of the unsaturated nodes, and its subgraphs are remapped to parent
/// ids with their counts folded back into the frequencies.
inline Result<DualStageResult> ReferenceDualStageSampling(
    const Graph& graph, const DualStageOptions& options, Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const auto record = [&](const DualStageResult& result,
                          int64_t boundary_nodes) {
    registry.GetCounter("sampling.dual.stage1_subgraphs")
        ->Increment(static_cast<uint64_t>(result.stage1_subgraphs));
    registry.GetCounter("sampling.dual.stage2_subgraphs")
        ->Increment(static_cast<uint64_t>(result.stage2_subgraphs));
    registry.GetCounter("sampling.dual.boundary_nodes")
        ->Increment(static_cast<uint64_t>(boundary_nodes));
  };

  DualStageResult result;
  result.frequency.assign(graph.num_nodes(), 0);
  Result<std::vector<Subgraph>> stage1 =
      ReferenceFreqSampling(graph, options.stage1, &result.frequency, rng);
  if (!stage1.ok()) return stage1.status();
  result.stage1_subgraphs = static_cast<int64_t>(stage1.value().size());
  result.container.Append(std::move(stage1).value());
  if (!options.enable_boundary_stage) {
    record(result, 0);
    return result;
  }

  std::vector<NodeId> remaining;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (result.frequency[v] < options.stage1.frequency_threshold) {
      remaining.push_back(v);
    }
  }
  if (remaining.size() < 2) {
    record(result, static_cast<int64_t>(remaining.size()));
    return result;
  }
  Result<Subgraph> boundary = ReferenceInducedSubgraph(graph, remaining);
  if (!boundary.ok()) return boundary.status();
  const Subgraph& boundary_graph = boundary.value();
  std::vector<int64_t> boundary_frequency(boundary_graph.num_nodes());
  for (int64_t local = 0; local < boundary_graph.num_nodes(); ++local) {
    boundary_frequency[local] =
        result.frequency[boundary_graph.global_ids[local]];
  }
  FreqSamplingOptions stage2 = options.stage1;
  stage2.subgraph_size = std::max<int64_t>(
      2, options.stage1.subgraph_size / options.boundary_divisor);
  Result<std::vector<Subgraph>> stage2_subgraphs = ReferenceFreqSampling(
      boundary_graph.local, stage2, &boundary_frequency, rng);
  if (!stage2_subgraphs.ok()) return stage2_subgraphs.status();
  for (Subgraph& sub : stage2_subgraphs.value()) {
    for (NodeId& id : sub.global_ids) id = boundary_graph.global_ids[id];
    for (NodeId global : sub.global_ids) ++result.frequency[global];
    ++result.stage2_subgraphs;
    result.container.Add(std::move(sub));
  }
  record(result, static_cast<int64_t>(remaining.size()));
  return result;
}

/// Alg. 1 with its walk loop written out (hash-set visited set, merged
/// neighbour vector per step).
inline Result<SubgraphContainer> ReferenceExtractSubgraphsRwr(
    const Graph& graph, const RwrSamplerOptions& options, Rng* rng) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  constexpr size_t kWalkChunks = 64;
  struct WalkTally {
    int64_t restarts = 0;
    int64_t dead_ends = 0;
    int64_t shards_touched = 0;
    bool ball_too_small = false;
    bool completed = false;
  };
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
  const auto run_walk = [&](size_t task, ShardedVisitMap* visits) {
    const NodeId v0 = starts[task];
    WalkTally& tally = tallies[task];
    Rng task_rng = SplitRng(walk_seed, static_cast<uint64_t>(v0));
    const std::vector<NodeId> ball = reference_internal::UndirectedRHopBall(
        graph, v0, static_cast<int>(options.hop_limit), visits);
    tally.shards_touched = visits->shards_touched();
    if (static_cast<int64_t>(ball.size()) < options.subgraph_size) {
      tally.ball_too_small = true;
      return;
    }
    std::vector<NodeId> walk_nodes{v0};
    std::unordered_set<NodeId> visited{v0};
    NodeId current = v0;
    std::vector<NodeId> candidates;
    for (int64_t step = 0; step < options.walk_length; ++step) {
      if (task_rng.NextBernoulli(options.restart_probability)) {
        current = v0;
        ++tally.restarts;
      }
      candidates.clear();
      for (NodeId u : ReferenceUndirectedNeighbors(graph, current)) {
        if (visits->Get(u) != -1) candidates.push_back(u);
      }
      if (candidates.empty()) {
        current = v0;
        ++tally.dead_ends;
        continue;
      }
      const NodeId next = candidates[task_rng.NextBounded(candidates.size())];
      current = next;
      if (visited.insert(next).second) walk_nodes.push_back(next);
      if (static_cast<int64_t>(walk_nodes.size()) == options.subgraph_size) {
        Result<Subgraph> sub = ReferenceInducedSubgraph(graph, walk_nodes);
        if (sub.ok()) {
          extracted[task].emplace(std::move(sub).value());
          tally.completed = true;
        } else {
          errors[task] = sub.status();
        }
        return;
      }
    }
  };
  const ShardLayout layout = ShardLayout::For(graph.num_nodes());
  GlobalThreadPool().ParallelForChunks(
      starts.size(), std::min(starts.size(), kWalkChunks),
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        ShardedVisitMap visits(layout);
        for (size_t task = begin; task < end; ++task) run_walk(task, &visits);
      });

  WalkTally total;
  int64_t completed = 0, rejected_ball = 0;
  SubgraphContainer container;
  for (size_t task = 0; task < starts.size(); ++task) {
    if (errors[task].has_value()) return *errors[task];
    total.restarts += tallies[task].restarts;
    total.dead_ends += tallies[task].dead_ends;
    total.shards_touched += tallies[task].shards_touched;
    completed += tallies[task].completed ? 1 : 0;
    rejected_ball += tallies[task].ball_too_small ? 1 : 0;
    if (extracted[task].has_value()) {
      container.Add(std::move(*extracted[task]));
    }
  }
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  metrics.GetCounter("sampling.rwr.walks_started")->Increment(starts.size());
  metrics.GetCounter("sampling.rwr.shards_touched")
      ->Increment(static_cast<uint64_t>(total.shards_touched));
  metrics.GetCounter("sampling.rwr.walks_completed")
      ->Increment(static_cast<uint64_t>(completed));
  metrics.GetCounter("sampling.rwr.restarts")
      ->Increment(static_cast<uint64_t>(total.restarts));
  metrics.GetCounter("sampling.rwr.dead_ends")
      ->Increment(static_cast<uint64_t>(total.dead_ends));
  metrics.GetCounter("sampling.rwr.ball_too_small")
      ->Increment(static_cast<uint64_t>(rejected_ball));
  return container;
}

/// EGN's unconstrained walks written out.
inline Result<SubgraphContainer> ReferenceSampleUnconstrainedWalks(
    const Graph& graph, int64_t subgraph_size, double restart_probability,
    int64_t walk_length, double sampling_rate, Rng* rng) {
  SubgraphContainer container;
  std::vector<NodeId> walk_nodes;
  for (NodeId v0 = 0; v0 < graph.num_nodes(); ++v0) {
    if (!rng->NextBernoulli(sampling_rate)) continue;
    if (graph.OutDegree(v0) + graph.InDegree(v0) == 0) continue;
    walk_nodes.assign(1, v0);
    std::unordered_set<NodeId> visited{v0};
    NodeId current = v0;
    for (int64_t step = 0; step < walk_length; ++step) {
      if (rng->NextBernoulli(restart_probability)) current = v0;
      const std::vector<NodeId> neighbors =
          ReferenceUndirectedNeighbors(graph, current);
      if (neighbors.empty()) {
        current = v0;
        continue;
      }
      const NodeId next = neighbors[rng->NextBounded(neighbors.size())];
      current = next;
      if (visited.insert(next).second) walk_nodes.push_back(next);
      if (static_cast<int64_t>(walk_nodes.size()) == subgraph_size) {
        Result<Subgraph> sub = ReferenceInducedSubgraph(graph, walk_nodes);
        if (!sub.ok()) return sub.status();
        container.Add(std::move(sub).value());
        break;
      }
    }
  }
  return container;
}

// ---------------------------------------------------------------------------
// Byte comparisons (CsrDifference lives in reference_csr.h).

inline void ExpectSameSubgraph(const Subgraph& actual,
                               const Subgraph& expected,
                               const std::string& what) {
  EXPECT_EQ(actual.global_ids, expected.global_ids) << what;
  EXPECT_EQ(CsrDifference(actual.local, expected.local), "") << what;
}

inline void ExpectSameSubgraphs(const std::vector<Subgraph>& actual,
                                const std::vector<Subgraph>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectSameSubgraph(actual[i], expected[i],
                       "subgraph " + std::to_string(i));
  }
}

inline void ExpectSameContainer(const SubgraphContainer& actual,
                                const SubgraphContainer& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (int64_t i = 0; i < actual.size(); ++i) {
    ExpectSameSubgraph(actual.at(i), expected.at(i),
                       "subgraph " + std::to_string(i));
  }
}

/// Every sampling.* counter's value.
inline std::map<std::string, uint64_t> SamplingCounters() {
  std::map<std::string, uint64_t> values;
  for (const std::string& name : obs::GlobalMetrics().CounterNames()) {
    if (name.rfind("sampling.", 0) == 0) {
      values[name] = obs::GlobalMetrics().GetCounter(name)->Value();
    }
  }
  return values;
}

/// Runs `fn` and returns how much it moved each sampling.* counter that it
/// moved at all.
template <typename Fn>
std::map<std::string, uint64_t> SamplingCounterDeltas(Fn&& fn) {
  const std::map<std::string, uint64_t> before = SamplingCounters();
  fn();
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : SamplingCounters()) {
    const auto it = before.find(name);
    const uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta != 0) deltas[name] = delta;
  }
  return deltas;
}

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_REFERENCE_EXTRACTION_H_
