#include "privim/graph/traversal.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_extraction.h"

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

TEST(RHopBallTest, PathGraph) {
  const Graph path = MakePath(10);
  const std::vector<NodeId> ball = RHopBall(path, 0, 3);
  EXPECT_EQ(ball.size(), 4u);  // 0, 1, 2, 3
  EXPECT_EQ(ball[0], 0);
  EXPECT_EQ(ball[3], 3);
}

TEST(RHopBallTest, ZeroHopsIsJustSource) {
  const Graph path = MakePath(5);
  const std::vector<NodeId> ball = RHopBall(path, 2, 0);
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball[0], 2);
}

TEST(RHopBallTest, StarCoversAllLeavesInOneHop) {
  const Graph star = MakeStar(8);
  EXPECT_EQ(RHopBall(star, 0, 1).size(), 8u);
  // Leaves have no out-arcs.
  EXPECT_EQ(RHopBall(star, 3, 5).size(), 1u);
}

TEST(RHopBallTest, InvalidSource) {
  const Graph path = MakePath(5);
  EXPECT_TRUE(RHopBall(path, -1, 2).empty());
  EXPECT_TRUE(RHopBall(path, 99, 2).empty());
  EXPECT_TRUE(RHopBall(path, 0, -1).empty());
}

TEST(BfsDistancesTest, PathDistances) {
  const Graph path = MakePath(6);
  const std::vector<int> dist = BfsDistances(path, 0);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsDistancesTest, UnreachableIsMinusOne) {
  const Graph graph = MakeGraph(4, {{0, 1}});
  const std::vector<int> dist = BfsDistances(graph, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(BfsDistancesTest, DirectionalityMatters) {
  const Graph path = MakePath(4);
  const std::vector<int> dist = BfsDistances(path, 3);
  EXPECT_EQ(dist[3], 0);
  EXPECT_EQ(dist[0], -1);  // arcs point forward only
}

TEST(BfsDistancesTest, CycleWrapsAround) {
  const Graph cycle = MakeCycle(5);
  const std::vector<int> dist = BfsDistances(cycle, 0);
  EXPECT_EQ(dist[4], 4);
  EXPECT_EQ(dist[1], 1);
}

TEST(WeaklyConnectedComponentsTest, SingleComponent) {
  const Graph cycle = MakeCycle(7);
  const ComponentInfo info = WeaklyConnectedComponents(cycle);
  EXPECT_EQ(info.num_components, 1);
}

TEST(WeaklyConnectedComponentsTest, MultipleComponents) {
  const Graph graph = MakeGraph(6, {{0, 1}, {2, 3}});
  const ComponentInfo info = WeaklyConnectedComponents(graph);
  EXPECT_EQ(info.num_components, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(info.label[0], info.label[1]);
  EXPECT_EQ(info.label[2], info.label[3]);
  EXPECT_NE(info.label[0], info.label[2]);
  EXPECT_NE(info.label[4], info.label[5]);
}

TEST(WeaklyConnectedComponentsTest, DirectedArcsCountBothWays) {
  // 0 -> 1 and 2 -> 1: weakly connected through node 1.
  const Graph graph = MakeGraph(3, {{0, 1}, {2, 1}});
  EXPECT_EQ(WeaklyConnectedComponents(graph).num_components, 1);
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

TEST(UndirectedRHopBallTest, IgnoresArcDirection) {
  // Directed path 0 -> 1 -> 2 -> 3: the undirected 2-ball of node 3
  // includes 1, 2, 3 even though no out-arcs leave node 3.
  const Graph path = MakePath(4);
  const std::vector<NodeId> ball = UndirectedRHopBall(path, 3, 2);
  EXPECT_EQ(ball.size(), 3u);
  EXPECT_TRUE(RHopBall(path, 3, 2).size() == 1u);  // directed ball is tiny
}

TEST(UndirectedRHopBallTest, MatchesDirectedBallOnSymmetricGraphs) {
  const Graph cycle = MakeCycle(8);
  // A directed cycle's 2-ball misses the predecessors; symmetrize first.
  GraphBuilder builder(8, /*undirected=*/true);
  for (NodeId v = 0; v < 8; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, static_cast<NodeId>((v + 1) % 8)).ok());
  }
  Result<Graph> sym = builder.Build();
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(UndirectedRHopBall(cycle, 0, 2).size(),
            RHopBall(sym.value(), 0, 2).size());
}

TEST(UndirectedRHopBallTest, BothFormsMatchTheOutThenInBall) {
  // The balls visit through ForEachUndirectedNeighbor; they must list the
  // same nodes in the same order as a BFS over out-arcs then in-arcs.
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
      EXPECT_EQ(UndirectedRHopBall(graph, v, r), expected);
      EXPECT_EQ(UndirectedRHopBall(graph, v, r, &visits), expected);
    }
  }
}

TEST(UndirectedRHopBallTest, InvalidInputsEmpty) {
  const Graph path = MakePath(3);
  EXPECT_TRUE(UndirectedRHopBall(path, -1, 2).empty());
  EXPECT_TRUE(UndirectedRHopBall(path, 0, -1).empty());
}

}  // namespace
}  // namespace privim
