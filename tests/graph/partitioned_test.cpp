#include "privim/graph/partitioned.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/graph/generators.h"
#include "privim/graph/graph.h"
#include "privim/graph/graph_io.h"
#include "privim/graph/traversal.h"
#include "testing/reference_csr.h"
#include "testing/reference_extraction.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

// ---------------------------------------------------------------- layout --

TEST(ShardLayoutTest, SmallGraphIsOneShard) {
  const ShardLayout layout = ShardLayout::For(1000);
  EXPECT_EQ(layout.num_shards, 1);
  EXPECT_EQ(layout.ShardOf(0), 0);
  EXPECT_EQ(layout.ShardOf(999), 0);
  EXPECT_EQ(layout.ShardBegin(0), 0);
  EXPECT_EQ(layout.ShardEnd(0), 1000);
}

TEST(ShardLayoutTest, LargeGraphStaysUnderMaxShards) {
  for (int64_t nodes : {int64_t{1} << 20, int64_t{10000000}, int64_t{1} << 26}) {
    const ShardLayout layout = ShardLayout::For(nodes);
    EXPECT_GE(layout.num_shards, 1) << nodes;
    EXPECT_LE(layout.num_shards, ShardLayout::kMaxShards) << nodes;
    // Power-of-two width, shards tile [0, nodes).
    EXPECT_EQ(layout.ShardWidth() & (layout.ShardWidth() - 1), 0);
    EXPECT_EQ(layout.ShardEnd(layout.num_shards - 1), nodes);
    EXPECT_GE(layout.ShardBegin(layout.num_shards - 1), 0);
  }
}

TEST(ShardLayoutTest, ShardOfMatchesRanges) {
  const ShardLayout layout = ShardLayout::For(100000);
  for (NodeId v : {0, 1, 4095, 4096, 50000, 99999}) {
    const int64_t shard = layout.ShardOf(v);
    EXPECT_GE(v, layout.ShardBegin(shard));
    EXPECT_LT(v, layout.ShardEnd(shard));
  }
}

TEST(ShardLayoutTest, WithShardsHitsTheRequestedCount) {
  const ShardLayout one = ShardLayout::WithShards(100000, 1);
  EXPECT_EQ(one.num_shards, 1);
  const ShardLayout seven = ShardLayout::WithShards(100000, 7);
  EXPECT_GE(seven.num_shards, 1);
  EXPECT_LE(seven.num_shards, 7);
  EXPECT_EQ(seven.ShardEnd(seven.num_shards - 1), 100000);
}

TEST(ShardLayoutTest, EmptyGraph) {
  const ShardLayout layout = ShardLayout::For(0);
  EXPECT_EQ(layout.num_shards, 0);
}

// -------------------------------------------------------- parallel build --

std::vector<Edge> RandomEdges(int64_t num_nodes, int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(edges.size()) < count) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (u == v) continue;
    edges.push_back({u, v, static_cast<float>(rng.NextDouble())});
  }
  return edges;
}

void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.OutDegree(v), b.OutDegree(v)) << "node " << v;
    ASSERT_EQ(a.InDegree(v), b.InDegree(v)) << "node " << v;
    const auto an = a.OutNeighbors(v), bn = b.OutNeighbors(v);
    const auto aw = a.OutWeights(v), bw = b.OutWeights(v);
    const auto ain = a.InNeighbors(v), bin = b.InNeighbors(v);
    const auto aiw = a.InWeights(v), biw = b.InWeights(v);
    for (size_t i = 0; i < an.size(); ++i) {
      ASSERT_EQ(an[i], bn[i]) << "node " << v;
      ASSERT_EQ(aw[i], bw[i]) << "node " << v;  // bitwise, not approximate
    }
    for (size_t i = 0; i < ain.size(); ++i) {
      ASSERT_EQ(ain[i], bin[i]) << "node " << v;
      ASSERT_EQ(aiw[i], biw[i]) << "node " << v;
    }
  }
}

// The serial reference: one global stable sort (testing/reference_csr.h).
Graph SerialReference(int64_t num_nodes, const std::vector<Edge>& edges) {
  return testing::ReferenceBuildGraph(num_nodes, edges);
}

TEST(PartitionedBuildTest, MatchesSerialPathAtEveryThreadCount) {
  const int64_t nodes = 20000;  // several shards under WithShards below
  const std::vector<Edge> edges = RandomEdges(nodes, 5000, 1);
  const Graph serial = SerialReference(nodes, edges);

  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetGlobalThreadPoolSize(threads);
    // Split the same sequence into several tasks; concatenation order is
    // what must be preserved, not the split.
    std::vector<std::vector<Edge>> tasks(3);
    for (size_t i = 0; i < edges.size(); ++i) {
      tasks[i * 3 / edges.size()].push_back(edges[i]);
    }
    Result<Graph> parallel =
        GraphBuilder::BuildParallel(nodes, /*undirected=*/false, tasks);
    ASSERT_TRUE(parallel.ok());
    ExpectGraphsIdentical(serial, parallel.value());
  }
  SetGlobalThreadPoolSize(0);
}

TEST(PartitionedBuildTest, BuildDelegatesAboveThresholdAndStaysIdentical) {
  // Enough arcs that Build() splits them into several tasks; a hand-rolled
  // serial sort/dedup checks the result.
  const int64_t nodes = 30000;
  const std::vector<Edge> edges = RandomEdges(nodes, 66036, 2);

  GraphBuilder builder(nodes);
  ASSERT_TRUE(builder.AddEdges(edges).ok());
  Result<Graph> built = builder.Build();
  ASSERT_TRUE(built.ok());

  // Serial reference computed by hand (stable sort, keep-first dedup).
  std::vector<Edge> sorted = edges;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Edge& a, const Edge& b) {
                     return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                   });
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               sorted.end());
  ASSERT_EQ(built->num_arcs(), static_cast<int64_t>(sorted.size()));
  const std::vector<Edge> actual = built->ToEdgeList();
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(actual[i].src, sorted[i].src) << i;
    ASSERT_EQ(actual[i].dst, sorted[i].dst) << i;
    ASSERT_EQ(actual[i].weight, sorted[i].weight) << i;
  }
}

TEST(PartitionedBuildTest, KeepFirstDedupAcrossTaskBoundaries) {
  // The duplicate arc appears in three tasks with different weights; the
  // first one in task order must win, exactly as serial AddEdge order.
  std::vector<std::vector<Edge>> tasks = {
      {{0, 1, 0.25f}, {2, 3, 1.0f}},
      {{0, 1, 0.5f}},
      {{0, 1, 0.75f}, {2, 3, 9.0f}},
  };
  Result<Graph> graph =
      GraphBuilder::BuildParallel(5, /*undirected=*/false, tasks);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 2);
  EXPECT_FLOAT_EQ(graph->OutWeights(0)[0], 0.25f);
  EXPECT_FLOAT_EQ(graph->OutWeights(2)[0], 1.0f);
  EXPECT_FLOAT_EQ(graph->InWeights(1)[0], 0.25f);
}

TEST(PartitionedBuildTest, UndirectedExpandsReverseArcs) {
  std::vector<std::vector<Edge>> tasks = {{{0, 1, 0.5f}, {1, 2, 0.75f}}};
  Result<Graph> graph =
      GraphBuilder::BuildParallel(3, /*undirected=*/true, tasks);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 4);
  EXPECT_TRUE(graph->HasArc(1, 0));
  EXPECT_TRUE(graph->HasArc(2, 1));
  EXPECT_FLOAT_EQ(graph->OutWeights(1)[0], 0.5f);  // reverse keeps weight
  EXPECT_TRUE(graph->undirected());

  // Must match an AddEdge-based undirected builder on the same edges.
  GraphBuilder builder(3, /*undirected=*/true);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5f).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.75f).ok());
  Result<Graph> reference = builder.Build();
  ASSERT_TRUE(reference.ok());
  ExpectGraphsIdentical(reference.value(), graph.value());
}

TEST(PartitionedBuildTest, ValidationMatchesAddEdgeErrors) {
  std::vector<std::vector<Edge>> out_of_range = {{{0, 7, 1.0f}}};
  Result<Graph> graph =
      GraphBuilder::BuildParallel(3, /*undirected=*/false, out_of_range);
  EXPECT_EQ(graph.status().code(), StatusCode::kOutOfRange);

  std::vector<std::vector<Edge>> self_loop = {{{1, 1, 1.0f}}};
  graph = GraphBuilder::BuildParallel(3, /*undirected=*/false, self_loop);
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);

  // First error in task order wins when several tasks are bad.
  std::vector<std::vector<Edge>> both = {{{2, 2, 1.0f}}, {{0, 9, 1.0f}}};
  graph = GraphBuilder::BuildParallel(3, /*undirected=*/false, both);
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionedBuildTest, EmptyTasksAndEmptyGraph) {
  std::vector<std::vector<Edge>> tasks;
  Result<Graph> graph =
      GraphBuilder::BuildParallel(4, /*undirected=*/false, tasks);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 4);
  EXPECT_EQ(graph->num_arcs(), 0);

  tasks = {{}, {}};
  graph = GraphBuilder::BuildParallel(0, /*undirected=*/false, tasks);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 0);
}

// ------------------------------------------- the one assembly vs serial --

// `count` arcs over `num_nodes` nodes; about one in four repeats an
// earlier arc's endpoints. Every weight is distinct, so a reordering of
// equal endpoints — and with it which duplicate dedup keeps — shows in the
// bytes.
std::vector<Edge> ArcsWithDuplicates(int64_t num_nodes, int64_t count,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(edges.size()) < count) {
    Edge e;
    if (!edges.empty() && rng.NextBounded(4) == 0) {
      e = edges[static_cast<size_t>(rng.NextBounded(edges.size()))];
    } else {
      e.src = static_cast<NodeId>(rng.NextBounded(num_nodes));
      e.dst = static_cast<NodeId>(rng.NextBounded(num_nodes));
      if (e.src == e.dst) continue;
    }
    e.weight = static_cast<float>(edges.size() + 1) / 1024.0f;
    edges.push_back(e);
  }
  return edges;
}

Graph BuildWithBuilder(int64_t num_nodes, const std::vector<Edge>& edges,
                       bool undirected) {
  GraphBuilder builder(num_nodes, undirected);
  EXPECT_TRUE(builder.AddEdges(edges).ok());
  Result<Graph> graph = builder.Build();
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

// `edges` cut into `num_tasks` uneven consecutive tasks.
std::vector<std::vector<Edge>> SplitIntoTasks(const std::vector<Edge>& edges,
                                              size_t num_tasks) {
  std::vector<std::vector<Edge>> tasks(num_tasks);
  for (size_t i = 0; i < edges.size(); ++i) {
    const double at = static_cast<double>(i) / static_cast<double>(edges.size());
    tasks[static_cast<size_t>(at * at * static_cast<double>(num_tasks))]
        .push_back(edges[i]);
  }
  return tasks;
}

constexpr size_t kThreadCounts[] = {1, 4, 8};

TEST(PartitionedBuildReferenceTest, BuilderMatchesSerialAssembly) {
  // Sizes from a 7-node graph to past the 64Ki arcs where Build
  // used to switch assemblies; graphs up to 4096 nodes are one shard, the
  // 30k-node ones eight.
  struct Size {
    int64_t nodes, arcs;
  };
  const Size sizes[] = {
      {7, 8}, {30, 58}, {320, 1171}, {3000, 20000}, {30000, 70000}};
  for (const Size& size : sizes) {
    const std::vector<Edge> edges =
        ArcsWithDuplicates(size.nodes, size.arcs, 11 + size.arcs);
    for (const bool undirected : {false, true}) {
      const graph_internal::CsrParts reference_csr =
          testing::ReferenceBuildCsr(size.nodes, edges, undirected);
      const Graph reference =
          testing::ReferenceBuildGraph(size.nodes, edges, undirected);
      for (const size_t threads : kThreadCounts) {
        SetGlobalThreadPoolSize(threads);
        const Graph built = BuildWithBuilder(size.nodes, edges, undirected);
        EXPECT_EQ(testing::CsrDifference(built, reference), "")
            << size.arcs << " arcs, undirected " << undirected << ", "
            << threads << " threads";
        EXPECT_EQ(testing::InCsrDifference(built, reference_csr), "")
            << size.arcs << " arcs, undirected " << undirected << ", "
            << threads << " threads";
      }
    }
  }
  SetGlobalThreadPoolSize(0);
}

TEST(PartitionedBuildReferenceTest, BuildParallelMatchesSerialAssembly) {
  for (const int64_t nodes : {int64_t{500}, int64_t{30000}}) {
    const std::vector<Edge> edges = ArcsWithDuplicates(nodes, 20000, 3);
    for (const bool undirected : {false, true}) {
      const graph_internal::CsrParts reference_csr =
          testing::ReferenceBuildCsr(nodes, edges, undirected);
      const Graph reference =
          testing::ReferenceBuildGraph(nodes, edges, undirected);
      for (const size_t threads : kThreadCounts) {
        SetGlobalThreadPoolSize(threads);
        Result<Graph> graph = GraphBuilder::BuildParallel(
            nodes, undirected, SplitIntoTasks(edges, 5));
        ASSERT_TRUE(graph.ok());
        EXPECT_EQ(testing::CsrDifference(graph.value(), reference), "")
            << nodes << " nodes, undirected " << undirected << ", "
            << threads << " threads";
        EXPECT_EQ(testing::InCsrDifference(graph.value(), reference_csr), "")
            << nodes << " nodes, undirected " << undirected << ", "
            << threads << " threads";
      }
    }
  }
  SetGlobalThreadPoolSize(0);
}

TEST(PartitionedBuildReferenceTest, DuplicatesKeepTheFirstWeight) {
  // Node 2's row repeats both targets with new weights, and the (2, 4)
  // repeats straddle the task boundary.
  const std::vector<Edge> edges = {{2, 4, 0.5f}, {2, 1, 0.25f}, {0, 2, 1.5f},
                                   {2, 4, 0.75f}, {2, 1, 2.0f}, {2, 4, 3.0f}};
  const Graph reference = testing::ReferenceBuildGraph(5, edges);
  EXPECT_EQ(testing::CsrDifference(BuildWithBuilder(5, edges, false),
                                   reference),
            "");
  Result<Graph> parallel = GraphBuilder::BuildParallel(
      5, /*undirected=*/false,
      {{edges.begin(), edges.begin() + 4}, {edges.begin() + 4, edges.end()}});
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(testing::CsrDifference(parallel.value(), reference), "");
  ASSERT_EQ(parallel->OutDegree(2), 2);
  EXPECT_EQ(parallel->OutWeights(2)[0], 0.25f);  // (2, 1): first wins
  EXPECT_EQ(parallel->OutWeights(2)[1], 0.5f);   // (2, 4): first wins
}

TEST(PartitionedBuildReferenceTest, ReverseExpandedPairsKeepTheFirstWeight) {
  // An undirected BuildParallel holds its out-CSR as its in-CSR. Pair
  // {a, b} comes first as (b, a) with 0.5, then as (a, b) and (b, a) again
  // with other weights in later tasks: both arcs must keep 0.5, and the
  // transposed reference's in-rows must be the out-rows. On 9000 nodes a
  // and b sit in different shards, among random arcs with repeats.
  for (const int64_t nodes : {int64_t{6}, int64_t{9000}}) {
    const NodeId a = 2;
    const NodeId b = nodes > 4096 ? 8500 : 4;
    std::vector<Edge> edges = {{b, a, 0.5f}, {0, 1, 1.0f}, {a, b, 2.0f},
                               {1, 0, 3.0f}, {b, a, 4.0f}, {a, 0, 0.25f}};
    if (nodes > 4096) {
      const std::vector<Edge> bulk = ArcsWithDuplicates(nodes, 20000, 17);
      edges.insert(edges.begin() + 3, bulk.begin(), bulk.end());
    }
    std::vector<std::vector<Edge>> tasks = {
        {edges.begin(), edges.begin() + 2},
        {edges.begin() + 2, edges.end() - 2},
        {edges.end() - 2, edges.end()}};
    const graph_internal::CsrParts reference_csr =
        testing::ReferenceBuildCsr(nodes, edges, /*undirected=*/true);
    const Graph reference =
        testing::ReferenceBuildGraph(nodes, edges, /*undirected=*/true);
    for (const size_t threads : kThreadCounts) {
      SetGlobalThreadPoolSize(threads);
      Result<Graph> graph =
          GraphBuilder::BuildParallel(nodes, /*undirected=*/true, tasks);
      ASSERT_TRUE(graph.ok());
      EXPECT_EQ(testing::CsrDifference(graph.value(), reference), "")
          << nodes << " nodes, " << threads << " threads";
      EXPECT_EQ(testing::InCsrDifference(graph.value(), reference_csr), "")
          << nodes << " nodes, " << threads << " threads";
      const auto out = graph->OutNeighbors(a);
      const auto at = std::find(out.begin(), out.end(), b) - out.begin();
      ASSERT_LT(at, static_cast<std::ptrdiff_t>(out.size()));
      EXPECT_EQ(graph->OutWeights(a)[static_cast<size_t>(at)], 0.5f);
      const auto in = graph->InNeighbors(a);
      const auto from = std::find(in.begin(), in.end(), b) - in.begin();
      ASSERT_LT(from, static_cast<std::ptrdiff_t>(in.size()));
      EXPECT_EQ(graph->InWeights(a)[static_cast<size_t>(from)], 0.5f);
    }
  }
  SetGlobalThreadPoolSize(0);
}

TEST(PartitionedBuildReferenceTest, EmptyGraphsAndIsolatedNodes) {
  const std::vector<Edge> none;
  for (const int64_t nodes : {int64_t{0}, int64_t{6}}) {
    const Graph reference = testing::ReferenceBuildGraph(nodes, none);
    EXPECT_EQ(testing::CsrDifference(BuildWithBuilder(nodes, none, false),
                                     reference),
              "");
    Result<Graph> parallel =
        GraphBuilder::BuildParallel(nodes, /*undirected=*/false, {{}, {}});
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(testing::CsrDifference(parallel.value(), reference), "");
  }
  // Nodes 0, 3 and 9 touch no arc; 1 only sends, 8 only receives.
  const std::vector<Edge> sparse = {{5, 2, 0.5f}, {1, 8, 1.0f}, {2, 5, 0.25f},
                                    {7, 6, 2.0f}, {4, 2, 0.125f}};
  for (const bool undirected : {false, true}) {
    EXPECT_EQ(testing::CsrDifference(
                  BuildWithBuilder(10, sparse, undirected),
                  testing::ReferenceBuildGraph(10, sparse, undirected)),
              "");
  }
}

TEST(PartitionedBuildReferenceTest, HubRowsMatchSerialAssembly) {
  // One hub sends and receives 25k arcs, most targets several times over
  // with distinct weights: the long rows take the library sort, not the
  // short-row insertion sort. Once as the only shard, once inside the
  // second of eight.
  for (const int64_t nodes : {int64_t{4000}, int64_t{30000}}) {
    const NodeId hub = nodes > 4096 ? 4100 : 0;
    Rng rng(7);
    std::vector<Edge> edges = ArcsWithDuplicates(nodes, 5000, 9);
    for (int i = 0; i < 25000; ++i) {
      const NodeId other = static_cast<NodeId>(rng.NextBounded(nodes));
      if (other == hub) continue;
      const float weight = static_cast<float>(edges.size() + 1) / 1024.0f;
      edges.push_back({hub, other, weight});
      edges.push_back({other, hub, weight + 0.5f});
    }
    const Graph reference = testing::ReferenceBuildGraph(nodes, edges);
    ASSERT_GE(reference.OutDegree(hub), 3000);
    for (const size_t threads : kThreadCounts) {
      SetGlobalThreadPoolSize(threads);
      EXPECT_EQ(testing::CsrDifference(BuildWithBuilder(nodes, edges, false),
                                       reference),
                "")
          << nodes << " nodes, " << threads << " threads";
    }
  }
  SetGlobalThreadPoolSize(0);
}

// --------------------------------------------------- one CSR, undirected --

// The bytes of one CSR direction of `graph`: offsets, sources, weights.
int64_t OneDirectionBytes(const Graph& graph) {
  return (graph.num_nodes() + 1) * static_cast<int64_t>(sizeof(int64_t)) +
         graph.num_arcs() *
             static_cast<int64_t>(sizeof(NodeId) + sizeof(float));
}

// An undirected graph holds its out-CSR alone: its in-accessors read those
// arrays, and they are byte-equal to the transposed in-CSR the serial
// reference assembles from the same edges.
void ExpectOneCsrEqualToTheReference(const Graph& graph,
                                     const std::vector<Edge>& edges) {
  ASSERT_TRUE(graph.undirected());
  EXPECT_EQ(graph.CsrBytes(), OneDirectionBytes(graph));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_EQ(graph.InNeighbors(v).data(), graph.OutNeighbors(v).data());
    ASSERT_EQ(graph.InWeights(v).data(), graph.OutWeights(v).data());
  }
  EXPECT_EQ(testing::InCsrDifference(
                graph, testing::ReferenceBuildCsr(graph.num_nodes(), edges,
                                                  /*undirected=*/true)),
            "");
}

TEST(PartitionedBuildReferenceTest, UndirectedGraphsHoldOneCsr) {
  // The loader: ids in first-appearance order are the file's ids, so the
  // file's lines are the reference's edges. Repeats of a pair in either
  // orientation carry other weights, which keep-first dedup drops.
  const std::vector<Edge> loaded_edges = ArcsWithDuplicates(40, 300, 23);
  const std::string path =
      privim::testing::ProcessTempDir() + "/one_csr_edges.txt";
  {
    std::ofstream file(path);
    file << std::setprecision(9);  // every float weight round-trips
    for (NodeId v = 1; v < 40; ++v) file << v - 1 << " " << v << " 0.5\n";
    for (const Edge& e : loaded_edges) {
      file << e.src << " " << e.dst << " " << e.weight << "\n";
    }
  }
  std::vector<Edge> file_edges;
  for (NodeId v = 1; v < 40; ++v) file_edges.push_back({v - 1, v, 0.5f});
  file_edges.insert(file_edges.end(), loaded_edges.begin(),
                    loaded_edges.end());
  Result<Graph> loaded = LoadEdgeList(path, /*undirected=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    SCOPED_TRACE("LoadEdgeList");
    ExpectOneCsrEqualToTheReference(loaded.value(), file_edges);
  }

  for (const int64_t nodes : {int64_t{300}, int64_t{9000}}) {
    SCOPED_TRACE("GraphBuilder::Build, " + std::to_string(nodes) + " nodes");
    const std::vector<Edge> edges = ArcsWithDuplicates(nodes, 20000, 29);
    ExpectOneCsrEqualToTheReference(
        BuildWithBuilder(nodes, edges, /*undirected=*/true), edges);
  }

  // The BA generator assembles through BuildParallel; its arcs, each pair
  // in both orientations with one weight, are the reference's edges.
  Result<Graph> ba = BarabasiAlbertParallel(20000, 4, /*seed=*/5);
  ASSERT_TRUE(ba.ok());
  {
    SCOPED_TRACE("BuildParallel (BarabasiAlbertParallel)");
    ExpectOneCsrEqualToTheReference(ba.value(), ba->ToEdgeList());
  }
}

// A directed graph keeps both directions, and its in-CSR is not its
// out-CSR.
TEST(PartitionedBuildReferenceTest, DirectedGraphKeepsADistinctInCsr) {
  const std::vector<Edge> edges = ArcsWithDuplicates(300, 2000, 31);
  const Graph graph = BuildWithBuilder(300, edges, /*undirected=*/false);
  EXPECT_EQ(graph.CsrBytes(), 2 * OneDirectionBytes(graph));
  EXPECT_NE(graph.InCsrSources().data(), graph.OutNeighbors(0).data());
  EXPECT_EQ(testing::InCsrDifference(
                graph, testing::ReferenceBuildCsr(300, edges, false)),
            "");
  int differing_rows = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto in = graph.InNeighbors(v);
    const auto out = graph.OutNeighbors(v);
    differing_rows +=
        std::equal(in.begin(), in.end(), out.begin(), out.end()) ? 0 : 1;
  }
  EXPECT_GT(differing_rows, 0);
}

TEST(PartitionedBuildReferenceTest, ValidationErrorsKeepCodesAndMessages) {
  GraphBuilder builder(3);
  const Status add_range = builder.AddEdge(0, 7);
  const Status add_loop = builder.AddEdge(1, 1);

  Result<Graph> graph =
      GraphBuilder::BuildParallel(3, /*undirected=*/false, {{{0, 7, 1.0f}}});
  EXPECT_EQ(graph.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(graph.status().message(), "edge endpoint out of range: (0, 7)");
  EXPECT_EQ(graph.status().message(), add_range.message());

  graph = GraphBuilder::BuildParallel(3, /*undirected=*/true, {{{1, 1, 1.0f}}});
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.status().message(), "self-loop rejected at node 1");
  EXPECT_EQ(graph.status().message(), add_loop.message());

  graph = GraphBuilder::BuildParallel(0, /*undirected=*/false, {{{0, 1, 1.0f}}});
  EXPECT_EQ(graph.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(graph.status().message(), "edge endpoint out of range: (0, 1)");

  graph = GraphBuilder::BuildParallel(-1, /*undirected=*/false, {});
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(graph.status().message(), "num_nodes must be >= 0");
}

// ------------------------------------------------------ sharded visit map --

TEST(ShardedVisitMapTest, GetReturnsMinusOneUntilSet) {
  ShardedVisitMap map(ShardLayout::For(100000));
  map.NextEpoch();
  EXPECT_EQ(map.Get(0), -1);
  EXPECT_EQ(map.Get(99999), -1);
  map.Set(42, 7);
  EXPECT_EQ(map.Get(42), 7);
  EXPECT_EQ(map.Get(43), -1);
}

TEST(ShardedVisitMapTest, NextEpochInvalidatesEverything) {
  ShardedVisitMap map(ShardLayout::For(100000));
  map.NextEpoch();
  map.Set(5, 1);
  map.Set(50000, 2);
  map.NextEpoch();
  EXPECT_EQ(map.Get(5), -1);
  EXPECT_EQ(map.Get(50000), -1);
  map.Set(5, 3);
  EXPECT_EQ(map.Get(5), 3);
}

TEST(ShardedVisitMapTest, AllocatesOnlyTouchedShards) {
  // 100k nodes over 4k-wide shards = 25 shards; touching two nodes in the
  // same shard allocates one block, a distant node a second.
  ShardedVisitMap map(ShardLayout::For(100000));
  map.NextEpoch();
  EXPECT_EQ(map.shards_allocated(), 0);
  map.Set(0, 1);
  map.Set(1, 1);
  EXPECT_EQ(map.shards_allocated(), 1);
  EXPECT_EQ(map.shards_touched(), 1);
  map.Set(99999, 1);
  EXPECT_EQ(map.shards_allocated(), 2);
  EXPECT_EQ(map.shards_touched(), 2);
  // A new epoch resets the touch count but keeps the allocations.
  map.NextEpoch();
  EXPECT_EQ(map.shards_touched(), 0);
  map.Set(1, 2);
  EXPECT_EQ(map.shards_allocated(), 2);
  EXPECT_EQ(map.shards_touched(), 1);
}

TEST(ShardedVisitMapTest, OverwriteWithinEpoch) {
  ShardedVisitMap map(ShardLayout::For(5000));
  map.NextEpoch();
  map.Set(7, 1);
  map.Set(7, 9);
  EXPECT_EQ(map.Get(7), 9);
}

// ----------------------------------------------------------- sharded ball --

Graph SmallWorldGraph(int64_t nodes, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(nodes, /*undirected=*/true);
  for (NodeId v = 0; v < nodes; ++v) {
    const NodeId next = static_cast<NodeId>((v + 1) % nodes);
    if (v != next) (void)builder.AddEdge(v, next);
    const NodeId far = static_cast<NodeId>(rng.NextBounded(nodes));
    if (far != v) (void)builder.AddEdge(v, far);
  }
  Result<Graph> graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(ShardedBallTest, MatchesDenseBallAcrossShardBoundaries) {
  // 20k nodes under a forced 4k shard width puts ring neighbors of ids
  // 4095/4096 in different shards; long-range arcs jump shards freely.
  const Graph graph = SmallWorldGraph(20000, 3);
  ShardedVisitMap visits(ShardLayout::For(graph.num_nodes()));
  ShardedVisitMap reference_visits(ShardLayout::For(graph.num_nodes()));
  for (NodeId source : {NodeId{0}, NodeId{4095}, NodeId{4096}, NodeId{19999}}) {
    for (int r = 0; r <= 3; ++r) {
      const std::vector<NodeId> dense =
          testing::reference_internal::UndirectedRHopBall(graph, source, r,
                                                          &reference_visits);
      const std::vector<NodeId> sharded =
          UndirectedRHopBall(graph, source, r, &visits);
      ASSERT_EQ(dense, sharded) << "source " << source << " r " << r;
      // Membership via the map agrees with the returned ball.
      for (NodeId v : sharded) ASSERT_NE(visits.Get(v), -1);
    }
  }
}

TEST(ShardedBallTest, ReusedMapGivesSameBallsAsFreshMaps) {
  const Graph graph = SmallWorldGraph(10000, 4);
  ShardedVisitMap reused(ShardLayout::For(graph.num_nodes()));
  for (NodeId source = 0; source < 64; ++source) {
    ShardedVisitMap fresh(ShardLayout::For(graph.num_nodes()));
    EXPECT_EQ(UndirectedRHopBall(graph, source, 2, &reused),
              UndirectedRHopBall(graph, source, 2, &fresh));
  }
}

}  // namespace
}  // namespace privim
