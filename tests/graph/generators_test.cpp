#include "privim/graph/generators.h"

#include <algorithm>
#include <ostream>

#include "gtest/gtest.h"
#include "privim/graph/traversal.h"

namespace privim {
namespace {

TEST(ErdosRenyiTest, ExactEdgeCount) {
  Rng rng(1);
  Result<Graph> graph = ErdosRenyi(100, 400, /*directed=*/true, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 100);
  EXPECT_EQ(graph->num_arcs(), 400);
}

TEST(ErdosRenyiTest, UndirectedDoublesArcs) {
  Rng rng(2);
  Result<Graph> graph = ErdosRenyi(50, 100, /*directed=*/false, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 200);
  // Symmetric.
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId v : graph->OutNeighbors(u)) EXPECT_TRUE(graph->HasArc(v, u));
  }
}

TEST(ErdosRenyiTest, RejectsImpossibleEdgeCount) {
  Rng rng(3);
  EXPECT_FALSE(ErdosRenyi(4, 100, true, &rng).ok());
  EXPECT_FALSE(ErdosRenyi(1, 0, true, &rng).ok());
}

TEST(BarabasiAlbertTest, SizeAndDegreeSkew) {
  Rng rng(4);
  Result<Graph> graph = BarabasiAlbert(2000, 4, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 2000);
  // Expected arcs: about 2 * m * (n - m - 1) + seed star.
  EXPECT_NEAR(static_cast<double>(graph->num_arcs()), 2.0 * 4 * 2000, 200.0);
  // Heavy tail: max degree far above the mean.
  int64_t max_degree = 0;
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    max_degree = std::max(max_degree, graph->OutDegree(v));
  }
  EXPECT_GT(max_degree, 5 * static_cast<int64_t>(graph->AverageDegree()));
}

TEST(BarabasiAlbertTest, Connected) {
  Rng rng(5);
  Result<Graph> graph = BarabasiAlbert(500, 3, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(WeaklyConnectedComponents(graph.value()).num_components, 1);
}

TEST(BarabasiAlbertTest, InvalidParams) {
  Rng rng(6);
  EXPECT_FALSE(BarabasiAlbert(10, 0, &rng).ok());
  EXPECT_FALSE(BarabasiAlbert(3, 5, &rng).ok());
}

TEST(WattsStrogatzTest, DegreeNearMeanDegree) {
  Rng rng(7);
  Result<Graph> graph = WattsStrogatz(300, 6, 0.1, &rng);
  ASSERT_TRUE(graph.ok());
  // Each node contributes ~k/2 undirected edges.
  EXPECT_NEAR(graph->AverageDegree(), 6.0, 0.8);
}

TEST(WattsStrogatzTest, ZeroBetaIsRingLattice) {
  Rng rng(8);
  Result<Graph> graph = WattsStrogatz(20, 4, 0.0, &rng);
  ASSERT_TRUE(graph.ok());
  // Node 0 connects to 1, 2, 18, 19.
  EXPECT_TRUE(graph->HasArc(0, 1));
  EXPECT_TRUE(graph->HasArc(0, 2));
  EXPECT_TRUE(graph->HasArc(0, 18));
  EXPECT_TRUE(graph->HasArc(0, 19));
  EXPECT_FALSE(graph->HasArc(0, 10));
}

TEST(WattsStrogatzTest, InvalidParams) {
  Rng rng(9);
  EXPECT_FALSE(WattsStrogatz(10, 3, 0.1, &rng).ok());   // odd degree
  EXPECT_FALSE(WattsStrogatz(4, 4, 0.1, &rng).ok());    // too few nodes
  EXPECT_FALSE(WattsStrogatz(10, 4, 1.5, &rng).ok());   // bad beta
}

TEST(DirectedPreferentialAttachmentTest, SizeAndInDegreeSkew) {
  Rng rng(10);
  Result<Graph> graph = DirectedPreferentialAttachment(1000, 5, &rng);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 1000);
  EXPECT_NEAR(static_cast<double>(graph->num_arcs()), 5.0 * 1000, 60.0);
  int64_t max_in = 0;
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    max_in = std::max(max_in, graph->InDegree(v));
  }
  EXPECT_GT(max_in, 30);  // hubs exist
}

TEST(DirectedPreferentialAttachmentTest, OutDegreeCapped) {
  Rng rng(11);
  Result<Graph> graph = DirectedPreferentialAttachment(200, 7, &rng);
  ASSERT_TRUE(graph.ok());
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    EXPECT_LE(graph->OutDegree(v), 7);
  }
}

TEST(GeneratorsTest, DeterministicInSeed) {
  Rng rng1(42), rng2(42);
  Result<Graph> a = BarabasiAlbert(200, 3, &rng1);
  Result<Graph> b = BarabasiAlbert(200, 3, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_arcs(), b->num_arcs());
  for (NodeId v = 0; v < a->num_nodes(); ++v) {
    ASSERT_EQ(a->OutDegree(v), b->OutDegree(v));
    const auto na = a->OutNeighbors(v);
    const auto nb = b->OutNeighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
  }
}

struct GeneratorCase {
  const char* name;
  int64_t nodes;
  int64_t param;
};

// Without this, gtest names each case by the raw bytes of the struct, and
// the `name` pointer's bytes change with address-space randomisation on
// every test-discovery run.
void PrintTo(const GeneratorCase& c, std::ostream* os) {
  *os << "nodes=" << c.nodes << " m=" << c.param;
}

class GeneratorSweepTest : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorSweepTest, BarabasiAlbertProducesSimpleGraph) {
  const GeneratorCase& c = GetParam();
  Rng rng(1234);
  Result<Graph> graph = BarabasiAlbert(c.nodes, c.param, &rng);
  ASSERT_TRUE(graph.ok());
  // No self-loops, no duplicate arcs.
  for (NodeId u = 0; u < graph->num_nodes(); ++u) {
    const auto neighbors = graph->OutNeighbors(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_NE(neighbors[i], u);
      if (i > 0) EXPECT_LT(neighbors[i - 1], neighbors[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorSweepTest,
    ::testing::Values(GeneratorCase{"small", 50, 2},
                      GeneratorCase{"medium", 500, 5},
                      GeneratorCase{"dense", 200, 20},
                      GeneratorCase{"sparse", 1000, 1}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace privim
