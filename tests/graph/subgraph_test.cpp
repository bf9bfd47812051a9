#include "privim/graph/subgraph.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/graph/generators.h"
#include "testing/graph_fixtures.h"
#include "testing/reference_extraction.h"

namespace privim {
namespace {

using testing::MakeGraph;

TEST(InducedSubgraphTest, KeepsInternalArcsOnly) {
  const Graph graph =
      MakeGraph(5, {{0, 1, 0.5f}, {1, 2, 0.6f}, {2, 3, 0.7f}, {3, 4, 0.8f}});
  Result<Subgraph> sub = InducedSubgraph(graph, {1, 2, 4});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_nodes(), 3);
  // Only arc 1 -> 2 survives (3 excluded cuts 2->3 and 3->4).
  EXPECT_EQ(sub->local.num_arcs(), 1);
  EXPECT_TRUE(sub->local.HasArc(0, 1));  // local ids of 1 and 2
  EXPECT_FLOAT_EQ(sub->local.OutWeights(0)[0], 0.6f);
}

TEST(InducedSubgraphTest, GlobalIdsPreserveFirstOccurrenceOrder) {
  const Graph graph = MakeGraph(5, {{0, 1}});
  Result<Subgraph> sub = InducedSubgraph(graph, {4, 2, 0, 2, 4});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->global_ids.size(), 3u);
  EXPECT_EQ(sub->global_ids[0], 4);
  EXPECT_EQ(sub->global_ids[1], 2);
  EXPECT_EQ(sub->global_ids[2], 0);
}

TEST(InducedSubgraphTest, FullNodeSetIsIsomorphic) {
  const Graph graph = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Result<Subgraph> sub = InducedSubgraph(graph, {0, 1, 2, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->local.num_arcs(), graph.num_arcs());
}

TEST(InducedSubgraphTest, OutOfRangeNodeFails) {
  const Graph graph = MakeGraph(3, {{0, 1}});
  EXPECT_EQ(InducedSubgraph(graph, {0, 7}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(InducedSubgraphTest, EmptyNodeSet) {
  const Graph graph = MakeGraph(3, {{0, 1}});
  Result<Subgraph> sub = InducedSubgraph(graph, {});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_nodes(), 0);
}

TEST(InducedSubgraphTest, IsolatedNodesKeptWithoutArcs) {
  const Graph graph = MakeGraph(4, {{0, 1}});
  Result<Subgraph> sub = InducedSubgraph(graph, {2, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_nodes(), 2);
  EXPECT_EQ(sub->local.num_arcs(), 0);
}

// Random directed arcs over `num_nodes` nodes: one-way arcs, reciprocal
// pairs with a different weight in each direction, and a few hubs.
Graph RandomDirectedGraph(int64_t num_nodes, int64_t num_arcs, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int64_t i = 0; i < num_arcs; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (i % 3 == 0) u = static_cast<NodeId>(rng.NextBounded(4));  // hubs
    if (u == v) continue;
    edges.push_back({u, v, static_cast<float>(rng.NextDouble())});
    if (i % 5 == 0) {
      edges.push_back({v, u, static_cast<float>(rng.NextDouble())});
    }
  }
  return MakeGraph(num_nodes, edges);
}

void ExpectMatchesReference(const Graph& graph,
                            const std::vector<NodeId>& nodes) {
  Result<Subgraph> actual = InducedSubgraph(graph, nodes);
  Result<Subgraph> expected = testing::ReferenceInducedSubgraph(graph, nodes);
  ASSERT_EQ(actual.ok(), expected.ok());
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
    return;
  }
  testing::ExpectSameSubgraph(actual.value(), expected.value(),
                              std::to_string(nodes.size()) + " nodes");
}

TEST(InducedSubgraphTest, MatchesTheBuilderOnRandomNodeListsWithDuplicates) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph directed = RandomDirectedGraph(300, 3000, seed);
    Rng graph_rng(seed);
    const Graph undirected = BarabasiAlbert(300, 4, &graph_rng).value();
    Rng rng(100 + seed);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<NodeId> nodes;
      const int64_t count = 1 + static_cast<int64_t>(rng.NextBounded(80));
      for (int64_t i = 0; i < count; ++i) {
        nodes.push_back(static_cast<NodeId>(rng.NextBounded(300)));
        if (rng.NextBernoulli(0.2)) {
          nodes.push_back(nodes[rng.NextBounded(nodes.size())]);  // repeat
        }
      }
      ExpectMatchesReference(directed, nodes);
      ExpectMatchesReference(undirected, nodes);
    }
  }
}

TEST(InducedSubgraphTest, MatchesTheBuilderOnEmptyAndBadLists) {
  const Graph graph = RandomDirectedGraph(50, 400, 9);
  ExpectMatchesReference(graph, {});
  ExpectMatchesReference(graph, {3, 3, 3});
  ExpectMatchesReference(graph, {4, 2, 50, 1});   // out of range after two
  ExpectMatchesReference(graph, {4, -1, 2});      // negative
  ExpectMatchesReference(graph, {7, 7, 99, -5});  // first bad id reported
}

TEST(InducedSubgraphTest, MatchesTheBuilderOnHubRowsAndLargeSets) {
  // Hubs 0-3 hold most arcs: small sets that contain them scan long rows.
  const Graph graph = RandomDirectedGraph(20000, 90000, 5);
  ASSERT_GT(graph.OutDegree(0), 5000);
  ExpectMatchesReference(graph, {0, 1, 2, 3});
  ExpectMatchesReference(graph, {17, 0, 400, 3, 19999, 2, 0, 1});
  // A set large enough that the builder takes its parallel path (and the
  // size of the boundary graph BES used to rebuild).
  std::vector<NodeId> most;
  Rng rng(6);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (rng.NextBernoulli(0.9)) most.push_back(v);
  }
  ExpectMatchesReference(graph, most);
  std::vector<NodeId> shuffled = most;
  rng.Shuffle(&shuffled);
  ExpectMatchesReference(graph, shuffled);
}

}  // namespace
}  // namespace privim
