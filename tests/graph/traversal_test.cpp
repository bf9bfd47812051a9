#include "privim/graph/traversal.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_extraction.h"
#include "testing/reference_oracles.h"

namespace privim {
namespace {

using testing::MakeCycle;
using testing::MakeGraph;
using testing::MakePath;
using testing::MakeStar;

// What ForEachUndirectedNeighbor yields, in order.
std::vector<NodeId> UndirectedNeighbors(const Graph& graph, NodeId v) {
  std::vector<NodeId> neighbors;
  ForEachUndirectedNeighbor(graph, v,
                            [&](NodeId u) { neighbors.push_back(u); });
  return neighbors;
}

TEST(WeaklyConnectedComponentsTest, SingleComponent) {
  const Graph cycle = MakeCycle(7);
  const testing::ComponentInfo info = testing::WeaklyConnectedComponents(cycle);
  EXPECT_EQ(info.num_components, 1);
}

TEST(WeaklyConnectedComponentsTest, MultipleComponents) {
  const Graph graph = MakeGraph(6, {{0, 1}, {2, 3}});
  const testing::ComponentInfo info = testing::WeaklyConnectedComponents(graph);
  EXPECT_EQ(info.num_components, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(info.label[0], info.label[1]);
  EXPECT_EQ(info.label[2], info.label[3]);
  EXPECT_NE(info.label[0], info.label[2]);
  EXPECT_NE(info.label[4], info.label[5]);
}

TEST(WeaklyConnectedComponentsTest, DirectedArcsCountBothWays) {
  // 0 -> 1 and 2 -> 1: weakly connected through node 1.
  const Graph graph = MakeGraph(3, {{0, 1}, {2, 1}});
  EXPECT_EQ(testing::WeaklyConnectedComponents(graph).num_components, 1);
}

TEST(UndirectedNeighborsTest, MergesBothDirectionsWithoutDuplicates) {
  // 0 -> 1, 2 -> 0, and a reciprocal pair 0 <-> 3.
  const Graph graph = MakeGraph(4, {{0, 1}, {2, 0}, {0, 3}, {3, 0}});
  std::vector<NodeId> neighbors = UndirectedNeighbors(graph, 0);
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<NodeId>{1, 2, 3}));
}

TEST(UndirectedNeighborsTest, IsolatedNodeHasNone) {
  const Graph graph = MakeGraph(3, {{0, 1}});
  EXPECT_TRUE(UndirectedNeighbors(graph, 2).empty());
}

TEST(UndirectedNeighborsTest, VisitsOutListThenNewInNeighborsInOrder) {
  // Random directed graphs with one-way and reciprocal arcs: the visitor
  // must yield the merged list's exact order, node by node.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<Edge> edges;
    for (int i = 0; i < 600; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(60));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(60));
      if (u != v) edges.push_back({u, v, 1.0f});
    }
    const Graph graph = MakeGraph(60, edges);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_EQ(UndirectedNeighbors(graph, v),
                testing::ReferenceUndirectedNeighbors(graph, v))
          << "seed " << seed << " node " << v;
    }
  }
}

TEST(UndirectedNeighborsTest, UndirectedGraphYieldsTheOutList) {
  // An undirected build stores both arcs, so the out-list alone is the
  // merged order, and a directed copy of the same arcs visits the same.
  Rng rng(7);
  std::vector<Edge> edges;
  for (int i = 0; i < 300; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(40));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(40));
    if (u != v) edges.push_back({u, v, 1.0f});
  }
  const Graph undirected = MakeGraph(40, edges, /*undirected=*/true);
  ASSERT_TRUE(undirected.undirected());
  const Graph directed_copy = WithUniformWeights(undirected, 1.0f);
  ASSERT_FALSE(directed_copy.undirected());
  for (NodeId v = 0; v < undirected.num_nodes(); ++v) {
    const auto out = undirected.OutNeighbors(v);
    EXPECT_EQ(UndirectedNeighbors(undirected, v),
              std::vector<NodeId>(out.begin(), out.end()));
    EXPECT_EQ(UndirectedNeighbors(directed_copy, v),
              testing::ReferenceUndirectedNeighbors(undirected, v));
  }
}

// The ball of `source` with a fresh visit map.
std::vector<NodeId> Ball(const Graph& graph, NodeId source, int r) {
  ShardedVisitMap visits(ShardLayout::For(graph.num_nodes()));
  return UndirectedRHopBall(graph, source, r, &visits);
}

TEST(UndirectedRHopBallTest, IgnoresArcDirection) {
  // Directed path 0 -> 1 -> 2 -> 3: the undirected 2-ball of node 3
  // includes 1, 2, 3 even though no out-arcs leave node 3.
  const Graph path = MakePath(4);
  EXPECT_EQ(Ball(path, 3, 2), (std::vector<NodeId>{3, 2, 1}));
}

TEST(UndirectedRHopBallTest, MatchesDirectedBallOnSymmetricGraphs) {
  const Graph cycle = MakeCycle(8);
  // On the symmetrized cycle the undirected ball is the directed one: two
  // hops either way around.
  GraphBuilder builder(8, /*undirected=*/true);
  for (NodeId v = 0; v < 8; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, static_cast<NodeId>((v + 1) % 8)).ok());
  }
  Result<Graph> sym = builder.Build();
  ASSERT_TRUE(sym.ok());
  std::vector<NodeId> ball = Ball(cycle, 0, 2);
  EXPECT_EQ(ball, Ball(sym.value(), 0, 2));
  std::sort(ball.begin(), ball.end());
  EXPECT_EQ(ball, (std::vector<NodeId>{0, 1, 2, 6, 7}));
}

TEST(UndirectedRHopBallTest, BothFormsMatchTheOutThenInBall) {
  // The ball visits through ForEachUndirectedNeighbor; it must list the
  // same nodes in the same order as a BFS over out-arcs then in-arcs, with
  // a visit map reused across calls as the RWR sampler reuses one.
  Rng rng(11);
  std::vector<Edge> edges;
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(120));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(120));
    if (u != v) edges.push_back({u, v, 1.0f});
  }
  const Graph graph = MakeGraph(120, edges);
  ShardedVisitMap reference_visits(ShardLayout::For(graph.num_nodes()));
  ShardedVisitMap visits(ShardLayout::For(graph.num_nodes()));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (int r = 0; r <= 3; ++r) {
      const std::vector<NodeId> expected =
          testing::reference_internal::UndirectedRHopBall(graph, v, r,
                                                          &reference_visits);
      EXPECT_EQ(Ball(graph, v, r), expected);
      EXPECT_EQ(UndirectedRHopBall(graph, v, r, &visits), expected);
    }
  }
}

TEST(UndirectedRHopBallTest, InvalidInputsEmpty) {
  const Graph path = MakePath(3);
  EXPECT_TRUE(Ball(path, -1, 2).empty());
  EXPECT_TRUE(Ball(path, 0, -1).empty());
}

}  // namespace
}  // namespace privim
