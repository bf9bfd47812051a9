#include "privim/gnn/features.h"

#include <cmath>

#include "gtest/gtest.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

using testing::MakeGraph;
using testing::MakeStar;

TEST(FeaturesTest, ShapeAndConstantChannel) {
  const Graph graph = MakeStar(6);
  const Tensor f = BuildNodeFeatures(graph, 8);
  EXPECT_EQ(f.rows(), 6);
  EXPECT_EQ(f.cols(), 8);
  for (int64_t v = 0; v < 6; ++v) EXPECT_FLOAT_EQ(f.at(v, 0), 1.0f);
}

TEST(FeaturesTest, DegreeChannels) {
  const Graph star = MakeStar(5);  // center 0 has out-degree 4
  const Tensor f = BuildNodeFeatures(star, 3);
  EXPECT_FLOAT_EQ(f.at(0, 1), std::log1p(4.0f) / 2.0f);
  EXPECT_FLOAT_EQ(f.at(0, 2), 0.0f);            // no in-arcs at center
  EXPECT_FLOAT_EQ(f.at(1, 1), 0.0f);            // leaves have no out-arcs
  EXPECT_FLOAT_EQ(f.at(1, 2), std::log1p(1.0f) / 2.0f);
}

TEST(FeaturesTest, HashChannelsBoundedAndVaried) {
  const Graph graph = MakeStar(50);
  const Tensor f = BuildNodeFeatures(graph, 8);
  bool varied = false;
  for (int64_t v = 0; v < 50; ++v) {
    for (int64_t c = 3; c < 8; ++c) {
      EXPECT_GE(f.at(v, c), -0.5f);
      EXPECT_LE(f.at(v, c), 0.5f);
      if (v > 0 && std::fabs(f.at(v, c) - f.at(0, c)) > 1e-6f) varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(FeaturesTest, GlobalIdsGiveStableFeaturesAcrossSubgraphs) {
  const Graph graph = MakeStar(10);
  // Node 7 appears at local position 0 in one "subgraph" and position 2 in
  // another; with global ids passed, its hash channels must match.
  const std::vector<NodeId> ids_a = {7, 1, 2, 0, 3, 4, 5, 6, 8, 9};
  const std::vector<NodeId> ids_b = {3, 4, 7, 0, 1, 2, 5, 6, 8, 9};
  const Tensor fa = BuildNodeFeatures(graph, 8, &ids_a);
  const Tensor fb = BuildNodeFeatures(graph, 8, &ids_b);
  for (int64_t c = 3; c < 8; ++c) {
    EXPECT_FLOAT_EQ(fa.at(0, c), fb.at(2, c));
  }
}

TEST(FeaturesTest, SaltChangesHashChannels) {
  const Graph graph = MakeStar(4);
  const Tensor f1 = BuildNodeFeatures(graph, 6, nullptr, 1);
  const Tensor f2 = BuildNodeFeatures(graph, 6, nullptr, 2);
  float diff = 0.0f;
  for (int64_t v = 0; v < 4; ++v) {
    for (int64_t c = 3; c < 6; ++c) diff += std::fabs(f1.at(v, c) - f2.at(v, c));
  }
  EXPECT_GT(diff, 0.0f);
}

TEST(FeaturesTest, SmallDimOnlyKeepsRequestedChannels) {
  const Graph graph = MakeStar(3);
  const Tensor f = BuildNodeFeatures(graph, 1);
  EXPECT_EQ(f.cols(), 1);
  EXPECT_FLOAT_EQ(f.at(0, 0), 1.0f);
}

}  // namespace
}  // namespace privim
