// The samplers against the reference implementations of
// testing/reference_extraction.h: the same bytes (every subgraph's global ids
// and six CSR arrays), the same frequencies and stage counts, and the same
// delta on every sampling.* counter, at 1 and 4 threads. These are the only
// byte pins on the naive variant's RWR sampler and on EGN's walks; the golden
// suite pins the dual-stage sampler inside the full pipeline.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/baselines/egn.h"
#include "privim/common/thread_pool.h"
#include "privim/graph/generators.h"
#include "privim/graph/projection.h"
#include "privim/sampling/dual_stage.h"
#include "privim/sampling/freq_sampler.h"
#include "privim/sampling/rwr_sampler.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_extraction.h"

namespace privim {
namespace {

using Counters = std::map<std::string, uint64_t>;
using testing::ExpectSameContainer;
using testing::ExpectSameSubgraphs;
using testing::SamplingCounterDeltas;

constexpr size_t kThreadCounts[] = {1, 4};

Graph MakeBa(int64_t nodes, int64_t m, uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(nodes, m, &rng).value();
}

// Random arcs: one-way arcs, reciprocal pairs whose two directions carry
// different weights, and hubs 0-2 that emit a third of the arcs.
Graph MakeDirected(int64_t nodes, int64_t arcs, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int64_t i = 0; i < arcs; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
    if (i % 3 == 0) u = static_cast<NodeId>(rng.NextBounded(3));
    if (u == v) continue;
    edges.push_back({u, v, static_cast<float>(rng.NextDouble())});
    if (i % 4 == 0) {
      edges.push_back({v, u, static_cast<float>(rng.NextDouble())});
    }
  }
  return testing::MakeGraph(nodes, edges);
}

DualStageOptions DualOptions(int64_t n, int64_t m_cap, double q) {
  DualStageOptions options;
  options.stage1.subgraph_size = n;
  options.stage1.frequency_threshold = m_cap;
  options.stage1.sampling_rate = q;
  options.boundary_divisor = 2;
  return options;
}

struct DualRun {
  DualStageResult result;
  Counters counters;
};

DualRun RunDual(bool reference, const Graph& graph,
                const DualStageOptions& options, uint64_t seed) {
  DualRun run;
  run.counters = SamplingCounterDeltas([&] {
    Rng rng(seed);
    Result<DualStageResult> result =
        reference ? testing::ReferenceDualStageSampling(graph, options, &rng)
                  : DualStageSampling(graph, options, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    run.result = std::move(result).value();
  });
  return run;
}

// The reference at one thread against the library at 1 and 4 threads.
// Returns the reference run for callers that check their case was hit.
DualRun ExpectDualStageMatches(const Graph& graph,
                               const DualStageOptions& options,
                               uint64_t seed) {
  SetGlobalThreadPoolSize(1);
  DualRun expected = RunDual(/*reference=*/true, graph, options, seed);
  EXPECT_GT(expected.result.container.size(), 0);
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetGlobalThreadPoolSize(threads);
    const DualRun actual = RunDual(/*reference=*/false, graph, options, seed);
    ExpectSameContainer(actual.result.container, expected.result.container);
    EXPECT_EQ(actual.result.frequency, expected.result.frequency);
    EXPECT_EQ(actual.result.stage1_subgraphs, expected.result.stage1_subgraphs);
    EXPECT_EQ(actual.result.stage2_subgraphs, expected.result.stage2_subgraphs);
    EXPECT_EQ(actual.counters, expected.counters);
  }
  SetGlobalThreadPoolSize(0);
  return expected;
}

TEST(SamplingOracleTest, DualStageMatchesOnBarabasiAlbert) {
  const Graph graph = MakeBa(3000, 5, 1);
  ASSERT_TRUE(graph.undirected());
  const DualRun run =
      ExpectDualStageMatches(graph, DualOptions(40, 6, 0.2), 2);
  EXPECT_GT(run.result.stage2_subgraphs, 0);
  ExpectDualStageMatches(graph, DualOptions(12, 3, 0.8), 3);
}

TEST(SamplingOracleTest, DualStageMatchesOnStochasticBlockModel) {
  const Graph graph = StochasticBlockModel(2000, 4, 0.02, 0.001, 4).value();
  const DualRun run =
      ExpectDualStageMatches(graph, DualOptions(20, 4, 0.5), 5);
  EXPECT_GT(run.result.stage2_subgraphs, 0);
}

TEST(SamplingOracleTest, DualStageMatchesOnDirectedGraphWithOneWayArcs) {
  const Graph graph = MakeDirected(1500, 9000, 6);
  ASSERT_FALSE(graph.undirected());
  const DualRun run =
      ExpectDualStageMatches(graph, DualOptions(16, 3, 0.6), 7);
  EXPECT_GT(run.result.stage2_subgraphs, 0);
}

TEST(SamplingOracleTest, DualStageMatchesOnSymmetricGraphBuiltDirected) {
  // Both arcs stored but no undirected flag: the visitor merges the lists.
  const Graph graph = WithUniformWeights(MakeBa(1500, 4, 8), 1.0f);
  ASSERT_FALSE(graph.undirected());
  ExpectDualStageMatches(graph, DualOptions(20, 4, 0.5), 9);
}

TEST(SamplingOracleTest, DualStageSkipsStartsWhoseNeighborsAllSaturated) {
  // With n = 2 and M = 1, the first committed walk in the star 0-9 takes
  // its centre 0 and saturates it; every leaf outside that walk then has
  // only saturated neighbours, so BES must skip it as G_re's degree-0 node.
  // The ring 10-69 (with chords) keeps real BES walks, some of whose starts
  // see their neighbours saturate during BES itself.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 9; ++leaf) edges.push_back({0, leaf, 1.0f});
  for (NodeId v = 10; v < 70; ++v) {
    edges.push_back({v, static_cast<NodeId>(10 + (v - 9) % 60), 0.5f});
    if (v % 7 == 0 && v + 10 < 70) {
      edges.push_back({v, static_cast<NodeId>(v + 10), 0.25f});
    }
  }
  const Graph graph = testing::MakeGraph(70, edges, /*undirected=*/true);
  DualStageOptions options = DualOptions(2, 1, 0.5);
  options.stage1.walk_length = 50;

  for (uint64_t seed = 10; seed < 14; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Stage 1 alone, to see which starts BES meets.
    DualStageOptions stage1_only = options;
    stage1_only.enable_boundary_stage = false;
    const DualRun stage1 = RunDual(/*reference=*/true, graph, stage1_only,
                                   seed);
    const std::vector<int64_t>& f = stage1.result.frequency;
    int64_t stranded = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (f[v] >= 1) continue;
      bool all_saturated = true;
      for (NodeId u : testing::ReferenceUndirectedNeighbors(graph, v)) {
        all_saturated = all_saturated && f[u] >= 1;
      }
      stranded += all_saturated ? 1 : 0;
    }
    EXPECT_GE(stranded, 8);

    const DualRun both = ExpectDualStageMatches(graph, options, seed);
    EXPECT_GT(both.result.stage2_subgraphs, 0);
  }
}

TEST(SamplingOracleTest, DualStageMatchesAtDecayZeroAndExtremeCaps) {
  const Graph graph = MakeBa(1500, 4, 15);
  for (double decay : {0.0, 1.0}) {
    for (int64_t m_cap : {int64_t{1}, int64_t{1000000}}) {
      SCOPED_TRACE("decay " + std::to_string(decay) + " M " +
                   std::to_string(m_cap));
      DualStageOptions options = DualOptions(20, m_cap, 1.0);
      options.stage1.decay = decay;
      const DualRun run = ExpectDualStageMatches(graph, options, 16);
      if (decay == 0.0 && m_cap == 1000000) {
        // Frequencies past one byte's range take the exact path.
        EXPECT_GT(*std::max_element(run.result.frequency.begin(),
                                    run.result.frequency.end()),
                  255);
      }
    }
  }
}

TEST(SamplingOracleTest, FreqSamplingMatchesFromPresetFrequencies) {
  // Callers may hand FreqSampling any non-negative frequencies; start some
  // nodes far above 255 and some at or past the cap.
  const Graph graph = MakeBa(1200, 4, 17);
  for (int64_t m_cap : {int64_t{3}, int64_t{300}, int64_t{1000000}}) {
    SCOPED_TRACE("M " + std::to_string(m_cap));
    FreqSamplingOptions options;
    options.subgraph_size = 15;
    options.sampling_rate = 0.7;
    options.frequency_threshold = m_cap;
    options.decay = 0.5;
    Rng preset_rng(18);
    std::vector<int64_t> preset(graph.num_nodes());
    for (int64_t& f : preset) {
      f = static_cast<int64_t>(preset_rng.NextBounded(700));
    }

    SetGlobalThreadPoolSize(1);
    std::vector<int64_t> expected_frequency = preset;
    std::vector<Subgraph> expected;
    const Counters expected_counters = SamplingCounterDeltas([&] {
      Rng rng(19);
      expected = testing::ReferenceFreqSampling(graph, options,
                                                &expected_frequency, &rng)
                     .value();
    });
    for (size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      SetGlobalThreadPoolSize(threads);
      std::vector<int64_t> frequency = preset;
      std::vector<Subgraph> actual;
      const Counters counters = SamplingCounterDeltas([&] {
        Rng rng(19);
        actual = FreqSampling(graph, options, &frequency, &rng).value();
      });
      ExpectSameSubgraphs(actual, expected);
      EXPECT_EQ(frequency, expected_frequency);
      EXPECT_EQ(counters, expected_counters);
    }
    SetGlobalThreadPoolSize(0);
  }
}

TEST(SamplingOracleTest, RwrMatchesOnUndirectedDirectedAndProjectedGraphs) {
  const Graph ba = MakeBa(1500, 4, 20);
  const Graph directed = MakeDirected(1500, 9000, 21);
  Rng projection_rng(22);
  const Graph projected = ProjectInDegree(ba, 3, &projection_rng).value();
  for (const Graph* graph : {&ba, &directed, &projected}) {
    for (int64_t hop_limit : {int64_t{2}, int64_t{3}}) {
      SCOPED_TRACE("arcs " + std::to_string(graph->num_arcs()) + " r " +
                   std::to_string(hop_limit));
      RwrSamplerOptions options;
      options.subgraph_size = 15;
      options.sampling_rate = 0.4;
      options.hop_limit = hop_limit;

      SetGlobalThreadPoolSize(1);
      SubgraphContainer expected;
      const Counters expected_counters = SamplingCounterDeltas([&] {
        Rng rng(23);
        expected =
            testing::ReferenceExtractSubgraphsRwr(*graph, options, &rng)
                .value();
      });
      EXPECT_GT(expected.size(), 0);
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SetGlobalThreadPoolSize(threads);
        SubgraphContainer actual;
        const Counters counters = SamplingCounterDeltas([&] {
          Rng rng(23);
          actual = ExtractSubgraphsRwr(*graph, options, &rng).value();
        });
        ExpectSameContainer(actual, expected);
        EXPECT_EQ(counters, expected_counters);
      }
      SetGlobalThreadPoolSize(0);
    }
  }
}

TEST(SamplingOracleTest, EgnWalksMatchOnUndirectedAndDirectedGraphs) {
  const Graph ba = MakeBa(1500, 4, 24);
  const Graph directed = MakeDirected(1500, 9000, 25);
  EgnOptions options;
  options.subgraph_size = 25;
  for (const Graph* graph : {&ba, &directed}) {
    SCOPED_TRACE("arcs " + std::to_string(graph->num_arcs()));
    Rng expected_rng(26);
    const SubgraphContainer expected =
        testing::ReferenceSampleUnconstrainedWalks(
            *graph, options.subgraph_size, options.restart_probability,
            options.walk_length, 0.3, &expected_rng)
            .value();
    EXPECT_GT(expected.size(), 0);
    Rng rng(26);
    const SubgraphContainer actual =
        SampleUnconstrainedWalks(*graph, options, 0.3, &rng).value();
    ExpectSameContainer(actual, expected);
    // Both consumed the same draws.
    EXPECT_EQ(rng.Next(), expected_rng.Next());
  }
}

}  // namespace
}  // namespace privim
