#include "privim/sampling/freq_sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "privim/graph/generators.h"

namespace privim {
namespace {

FreqSamplingOptions DefaultOptions() {
  FreqSamplingOptions options;
  options.subgraph_size = 10;
  options.restart_probability = 0.3;
  options.decay = 1.0;
  options.sampling_rate = 0.8;
  options.walk_length = 200;
  options.frequency_threshold = 3;
  return options;
}

Graph MakeTestGraph(uint64_t seed, int64_t nodes = 300, int64_t m = 4) {
  Rng rng(seed);
  Result<Graph> graph = BarabasiAlbert(nodes, m, &rng);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(FreqSamplerTest, ValidatesOptions) {
  FreqSamplingOptions options = DefaultOptions();
  options.decay = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options = DefaultOptions();
  options.frequency_threshold = 0;
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(DefaultOptions().Validate().ok());

  // Non-finite values fail every range check by comparison, so each must
  // be rejected explicitly, naming its field.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const FreqSamplingOptions& bad,
                                  const std::string& field) {
    const Status status = bad.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.ToString().find(field), std::string::npos)
        << status.ToString();
  };
  options = DefaultOptions();
  options.decay = nan;
  expect_rejected(options, "decay");
  options.decay = inf;
  expect_rejected(options, "decay");
  options = DefaultOptions();
  options.restart_probability = nan;
  expect_rejected(options, "restart_probability");
  options = DefaultOptions();
  options.sampling_rate = nan;
  expect_rejected(options, "sampling_rate");
}

TEST(FreqSamplerTest, NegativeFrequencyFails) {
  // Eq. 9 at f = -1 would weigh the node 1/pow(0, mu) = +inf.
  const Graph graph = MakeTestGraph(15);
  std::vector<int64_t> freq(graph.num_nodes(), 0);
  freq[7] = -1;
  const std::vector<int64_t> before = freq;
  Rng rng(16);
  Result<std::vector<Subgraph>> subgraphs =
      FreqSampling(graph, DefaultOptions(), &freq, &rng);
  EXPECT_EQ(subgraphs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(freq, before);
}

TEST(FreqSamplerTest, FrequencyVectorSizeMismatchFails) {
  const Graph graph = MakeTestGraph(1);
  std::vector<int64_t> freq(graph.num_nodes() - 1, 0);
  Rng rng(2);
  EXPECT_FALSE(FreqSampling(graph, DefaultOptions(), &freq, &rng).ok());
}

TEST(FreqSamplerTest, EnforcesGlobalThresholdM) {
  // The SCS invariant (Sec. IV-A): after sampling, no node's frequency
  // exceeds M, no matter how many walks ran.
  const Graph graph = MakeTestGraph(3);
  std::vector<int64_t> freq(graph.num_nodes(), 0);
  FreqSamplingOptions options = DefaultOptions();
  options.sampling_rate = 1.0;
  Rng rng(4);
  // Run the sampler repeatedly to stress the cap.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(FreqSampling(graph, options, &freq, &rng).ok());
  }
  for (int64_t f : freq) EXPECT_LE(f, options.frequency_threshold);
}

TEST(FreqSamplerTest, FrequencyCountsMatchReturnedSubgraphs) {
  const Graph graph = MakeTestGraph(5);
  std::vector<int64_t> freq(graph.num_nodes(), 0);
  Rng rng(6);
  Result<std::vector<Subgraph>> subgraphs =
      FreqSampling(graph, DefaultOptions(), &freq, &rng);
  ASSERT_TRUE(subgraphs.ok());
  std::vector<int64_t> expected(graph.num_nodes(), 0);
  for (const Subgraph& sub : subgraphs.value()) {
    for (NodeId v : sub.global_ids) ++expected[v];
  }
  EXPECT_EQ(freq, expected);
}

TEST(FreqSamplerTest, SubgraphsHaveRequestedSize) {
  const Graph graph = MakeTestGraph(7);
  std::vector<int64_t> freq(graph.num_nodes(), 0);
  Rng rng(8);
  Result<std::vector<Subgraph>> subgraphs =
      FreqSampling(graph, DefaultOptions(), &freq, &rng);
  ASSERT_TRUE(subgraphs.ok());
  ASSERT_GT(subgraphs->size(), 5u);
  for (const Subgraph& sub : subgraphs.value()) {
    EXPECT_EQ(sub.num_nodes(), 10);
  }
}

TEST(FreqSamplerTest, SaturatedStartNodesAreSkipped) {
  const Graph graph = MakeTestGraph(9);
  FreqSamplingOptions options = DefaultOptions();
  options.sampling_rate = 1.0;
  // Pre-saturate every node: nothing can be sampled.
  std::vector<int64_t> freq(graph.num_nodes(), options.frequency_threshold);
  Rng rng(10);
  Result<std::vector<Subgraph>> subgraphs =
      FreqSampling(graph, options, &freq, &rng);
  ASSERT_TRUE(subgraphs.ok());
  EXPECT_TRUE(subgraphs->empty());
}

TEST(FreqSamplerTest, HigherDecayEqualizesNodeFrequencies) {
  // Eq. 9's inverse-frequency weighting steers walks away from
  // already-sampled nodes: with the threshold effectively disabled, a large
  // decay exponent must yield a flatter frequency distribution (lower
  // coefficient of variation) than decay 0 on a hub-heavy graph.
  const Graph graph = MakeTestGraph(11, 500, 6);
  FreqSamplingOptions flat = DefaultOptions();
  flat.decay = 0.0;
  flat.sampling_rate = 0.5;
  flat.frequency_threshold = 1000000;  // no cap: isolate the decay effect
  FreqSamplingOptions decayed = flat;
  decayed.decay = 3.0;

  auto coefficient_of_variation = [&graph](const FreqSamplingOptions& options,
                                           uint64_t seed) {
    std::vector<int64_t> freq(graph.num_nodes(), 0);
    Rng rng(seed);
    Result<std::vector<Subgraph>> subgraphs =
        FreqSampling(graph, options, &freq, &rng);
    EXPECT_TRUE(subgraphs.ok());
    double mean = 0.0;
    for (int64_t f : freq) mean += static_cast<double>(f);
    mean /= static_cast<double>(freq.size());
    double var = 0.0;
    for (int64_t f : freq) {
      var += (static_cast<double>(f) - mean) * (static_cast<double>(f) - mean);
    }
    var /= static_cast<double>(freq.size());
    return mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  };

  double flat_cv = 0.0, decayed_cv = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    flat_cv += coefficient_of_variation(flat, 100 + seed);
    decayed_cv += coefficient_of_variation(decayed, 100 + seed);
  }
  EXPECT_LT(decayed_cv, flat_cv);
}

TEST(FreqSamplerTest, ThresholdOneSamplesDisjointSubgraphs) {
  const Graph graph = MakeTestGraph(13);
  FreqSamplingOptions options = DefaultOptions();
  options.frequency_threshold = 1;
  options.sampling_rate = 1.0;
  std::vector<int64_t> freq(graph.num_nodes(), 0);
  Rng rng(14);
  Result<std::vector<Subgraph>> subgraphs =
      FreqSampling(graph, options, &freq, &rng);
  ASSERT_TRUE(subgraphs.ok());
  std::vector<int64_t> seen(graph.num_nodes(), 0);
  for (const Subgraph& sub : subgraphs.value()) {
    for (NodeId v : sub.global_ids) {
      ++seen[v];
      EXPECT_LE(seen[v], 1) << "node " << v << " in two subgraphs";
    }
  }
}

}  // namespace
}  // namespace privim
