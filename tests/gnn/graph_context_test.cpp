#include "privim/gnn/graph_context.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/graph/generators.h"
#include "privim/graph/graph_io.h"
#include "privim/nn/ops.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

using testing::MakeGraph;

/// The GCN operator built the sorting way: each node's self-loop appended
/// after all of its in-arcs, then the triplets sorted row-major.
SparseMatrix SortedGcnReference(const Graph& graph) {
  const int64_t n = graph.num_nodes();
  std::vector<Triplet> triplets;
  for (NodeId v = 0; v < n; ++v) {
    const auto sources = graph.InNeighbors(v);
    const double dv = static_cast<double>(sources.size()) + 1.0;
    for (const NodeId u : sources) {
      const double du = static_cast<double>(graph.InDegree(u)) + 1.0;
      triplets.push_back({v, u, static_cast<float>(1.0 / std::sqrt(dv * du))});
    }
    triplets.push_back({v, v, static_cast<float>(1.0 / dv)});
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  return *MakeSparseCsr(n, n, std::move(triplets));
}

void ExpectSameCsr(const SparseMatrix& got, const SparseMatrix& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.indices, want.indices);
  ASSERT_EQ(got.values.size(), want.values.size());
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(float)),
            0);
}

TEST(GraphContextTest, InfluenceAdjacencyMatchesEq2) {
  // Arc weights w_uv: influence_adj[v][u] = w_uv.
  const Graph graph = MakeGraph(3, {{0, 2, 0.5f}, {1, 2, 0.25f}});
  const GraphContext ctx = GraphContext::Build(graph);
  Variable p(Tensor::FromVector(3, 1, {1, 1, 0}));
  const Tensor y = SpMM(ctx.influence_adj, p).value();
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2, 0), 0.75f);  // 0.5 * 1 + 0.25 * 1
}

TEST(GraphContextTest, GcnAdjacencyHasSelfLoopsAndSymmetricNorm) {
  const Graph graph = MakeGraph(2, {{0, 1, 1.0f}});
  const GraphContext ctx = GraphContext::Build(graph);
  // Node 1: din=1; self-loop value 1/(1+1) = 0.5; arc from 0 (din(0)=0):
  // 1/sqrt((1+1)(0+1)) = 1/sqrt(2).
  Variable x(Tensor::FromVector(2, 1, {1, 1}));
  const Tensor y = SpMM(ctx.gcn_adj, x).value();
  EXPECT_NEAR(y.at(0, 0), 1.0f, 1e-6f);  // only self-loop 1/(0+1)
  EXPECT_NEAR(y.at(1, 0), 0.5f + 1.0f / std::sqrt(2.0f), 1e-6f);
}

TEST(GraphContextTest, MeanAdjacencyAveragesInNeighbors) {
  const Graph graph = MakeGraph(4, {{0, 3, 1.0f}, {1, 3, 1.0f}, {2, 3, 1.0f}});
  const GraphContext ctx = GraphContext::Build(graph);
  Variable x(Tensor::FromVector(4, 1, {3, 6, 9, 100}));
  const Tensor y = SpMM(ctx.mean_in_adj, x).value();
  EXPECT_FLOAT_EQ(y.at(3, 0), 6.0f);  // (3+6+9)/3
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);  // no in-neighbors
}

TEST(GraphContextTest, SumAdjacencySums) {
  const Graph graph = MakeGraph(3, {{0, 2, 0.5f}, {1, 2, 0.5f}});
  const GraphContext ctx = GraphContext::Build(graph);
  Variable x(Tensor::FromVector(3, 1, {2, 5, 0}));
  // GIN ignores edge weights: value 1 per arc.
  EXPECT_FLOAT_EQ(SpMM(ctx.sum_in_adj, x).value().at(2, 0), 7.0f);
}

TEST(GraphContextTest, ArcListsMatchGraph) {
  const Graph graph = MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  const GraphContext ctx = GraphContext::Build(graph);
  ASSERT_EQ(ctx.arc_src.size(), 3u);
  ASSERT_EQ(ctx.arc_dst.size(), 3u);
  for (size_t e = 0; e < ctx.arc_src.size(); ++e) {
    EXPECT_TRUE(graph.HasArc(ctx.arc_src[e], ctx.arc_dst[e]));
  }
}

TEST(GraphContextTest, AttentionListsAddOneSelfLoopPerNode) {
  const Graph graph = MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  const GraphContext ctx = GraphContext::Build(graph);
  ASSERT_EQ(ctx.attention_src.size(), 6u);  // 3 arcs + 3 self-loops
  int self_loops = 0;
  for (size_t e = 0; e < ctx.attention_src.size(); ++e) {
    if (ctx.attention_src[e] == ctx.attention_dst[e]) {
      ++self_loops;
    } else {
      EXPECT_TRUE(graph.HasArc(ctx.attention_src[e], ctx.attention_dst[e]));
    }
  }
  EXPECT_EQ(self_loops, 3);
}

TEST(GraphContextTest, EmptyGraph) {
  GraphBuilder builder(3);
  Result<Graph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const GraphContext ctx = GraphContext::Build(graph.value());
  EXPECT_EQ(ctx.num_nodes, 3);
  EXPECT_TRUE(ctx.arc_src.empty());
  Variable x(Tensor::Ones(3, 2));
  EXPECT_FLOAT_EQ(SpMM(ctx.influence_adj, x).value().MaxAbs(), 0.0f);
}

TEST(GraphContextTest, GcnSelfLoopsSitAtTheirSortedPosition) {
  std::vector<Graph> graphs;
  // Self-arcs in an edge list are dropped on load (no Graph holds one), so
  // the GCN self-loop stays the only diagonal entry. The other arcs give
  // nodes in-arcs from below, from above and from both sides of their id.
  const std::string path = ::testing::TempDir() + "/gcn_self_arcs.txt";
  {
    std::ofstream file(path);
    file << "0 0\n1 0\n3 0\n2 2\n4 2\n3 3\n0 3\n1 3\n2 1\n4 4\n";
  }
  for (const bool undirected : {false, true}) {
    Result<Graph> loaded = LoadEdgeList(path, undirected);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    graphs.push_back(std::move(loaded).value());
  }
  // Isolated nodes (3, 6 and 7 have no arcs at all) and a node whose
  // in-arcs all come from higher ids.
  graphs.push_back(MakeGraph(
      8, {{5, 0, 1.0f}, {4, 0, 1.0f}, {0, 1, 1.0f}, {2, 1, 1.0f},
          {5, 1, 1.0f}, {1, 2, 1.0f}, {0, 5, 1.0f}, {2, 4, 1.0f}}));
  {
    GraphBuilder builder(4);
    graphs.push_back(builder.Build().value());  // no arcs at all
  }
  Rng rng(41);
  graphs.push_back(ErdosRenyi(60, 240, /*directed=*/true, &rng).value());
  graphs.push_back(BarabasiAlbert(80, 3, &rng).value());

  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const GraphContext ctx = GraphContext::Build(graphs[i]);
    ExpectSameCsr(*ctx.gcn_adj, SortedGcnReference(graphs[i]));
  }
}

TEST(GraphContextTest, PartialBuildsMatchTheFullBuild) {
  Rng rng(43);
  const Graph graph = ErdosRenyi(30, 90, /*directed=*/true, &rng).value();
  const GraphContext full = GraphContext::Build(graph);
  EXPECT_EQ(full.parts, GraphContext::kAllParts);

  const auto expect_operator =
      [](const std::shared_ptr<const SparseMatrix>& got,
         const std::shared_ptr<const SparseMatrix>& want, bool built) {
        if (!built) {
          EXPECT_EQ(got, nullptr);
          return;
        }
        ASSERT_NE(got, nullptr);
        ExpectSameCsr(*got, *want);
      };
  const std::vector<int32_t> none;
  for (uint32_t parts = 0; parts <= GraphContext::kAllParts; ++parts) {
    SCOPED_TRACE("parts " + std::to_string(parts));
    const GraphContext ctx = GraphContext::Build(graph, parts);
    EXPECT_EQ(ctx.parts, parts);
    EXPECT_EQ(ctx.num_nodes, graph.num_nodes());
    expect_operator(ctx.influence_adj, full.influence_adj,
                    (parts & GraphContext::kInfluenceAdj) != 0);
    expect_operator(ctx.gcn_adj, full.gcn_adj,
                    (parts & GraphContext::kGcnAdj) != 0);
    expect_operator(ctx.mean_in_adj, full.mean_in_adj,
                    (parts & GraphContext::kMeanInAdj) != 0);
    expect_operator(ctx.sum_in_adj, full.sum_in_adj,
                    (parts & GraphContext::kSumInAdj) != 0);
    const bool arcs = (parts & GraphContext::kArcLists) != 0;
    const bool attention = (parts & GraphContext::kAttentionLists) != 0;
    EXPECT_EQ(ctx.arc_src, arcs ? full.arc_src : none);
    EXPECT_EQ(ctx.arc_dst, arcs ? full.arc_dst : none);
    EXPECT_EQ(ctx.attention_src, attention ? full.attention_src : none);
    EXPECT_EQ(ctx.attention_dst, attention ? full.attention_dst : none);
  }
}

}  // namespace
}  // namespace privim
