#include "privim/graph/graph_io.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "gtest/gtest.h"
#include "testing/graph_fixtures.h"

namespace privim {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream file(path);
  file << body;
  return path;
}

TEST(GraphIoTest, LoadsSimpleEdgeList) {
  const std::string path = WriteTempFile("simple.txt",
                                         "# comment\n"
                                         "0 1\n"
                                         "1 2 0.5\n"
                                         "% alt comment\n"
                                         "2 0\n");
  Result<Graph> graph = LoadEdgeList(path, /*undirected=*/false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 3);
  EXPECT_EQ(graph->num_arcs(), 3);
  EXPECT_FLOAT_EQ(graph->OutWeights(1)[0], 0.5f);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RemapsSparseNodeIds) {
  const std::string path =
      WriteTempFile("sparse_ids.txt", "1000 2000\n2000 5\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 3);
  EXPECT_EQ(graph->num_arcs(), 2);
  std::remove(path.c_str());
}

TEST(GraphIoTest, UndirectedSymmetrizes) {
  const std::string path = WriteTempFile("undirected.txt", "0 1\n");
  Result<Graph> graph = LoadEdgeList(path, /*undirected=*/true);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 2);
  std::remove(path.c_str());
}

TEST(GraphIoTest, DropsSelfLoops) {
  const std::string path = WriteTempFile("loops.txt", "0 0\n0 1\n1 1\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_arcs(), 1);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MalformedLineFails) {
  const std::string path = WriteTempFile("bad.txt", "0 1\nnot numbers\n");
  EXPECT_EQ(LoadEdgeList(path, false).status().code(), StatusCode::kIOError);
  std::remove(path.c_str());

  // Weights that are not finite non-negative numbers, an id that is not an
  // integer, a negative id, a NUL byte in a field, and a fourth field: each
  // fails on its own line, with a reason.
  using std::string_literals::operator""s;
  const std::string bad_lines[] = {"0 1 abc", "0 1 nan", "0 1 inf", "0 1e3",
                                   "0 1 -5",  "0 1 1e999",
                                   "0 1 0.5 trailing junk",
                                   "-1 2",    "2 -7 0.5", "-0 1",
                                   "0 1\0x"s, "0 1 0.5\0zz"s};
  for (const std::string& bad : bad_lines) {
    const std::string bad_path =
        WriteTempFile("bad_weight.txt", "# header\n0 2 0.5\n" + bad + "\n");
    const Status status = LoadEdgeList(bad_path, false).status();
    EXPECT_EQ(status.code(), StatusCode::kIOError) << bad;
    EXPECT_NE(status.message().find("malformed line 3 in " + bad_path + ": "),
              std::string::npos)
        << bad << ": " << status.message();
    std::remove(bad_path.c_str());
  }
}

TEST(GraphIoTest, AcceptsEveryWellFormedLine) {
  // Comments, blank lines, tabs, CRLF, two-column lines, trailing
  // whitespace and a weight above 1.
  const std::string path = WriteTempFile("accepted.txt",
                                         "# comment\n"
                                         "% comment\n"
                                         "\n"
                                         " \t \n"
                                         "0\t1\t0.25\n"
                                         "1 2\r\n"
                                         "2 3 0.5 \t\n"
                                         "3 0 7.5\n"
                                         "  0 2\t\r\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 4);
  EXPECT_EQ(graph->num_arcs(), 5);
  EXPECT_EQ(graph->OutWeights(0)[0], 0.25f);
  EXPECT_EQ(graph->OutWeights(0)[1], 1.0f);
  EXPECT_EQ(graph->OutWeights(1)[0], 1.0f);
  EXPECT_EQ(graph->OutWeights(2)[0], 0.5f);
  EXPECT_EQ(graph->OutWeights(3)[0], 7.5f);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileFails) {
  EXPECT_EQ(LoadEdgeList("/nonexistent/file.txt", false).status().code(),
            StatusCode::kIOError);
}

// A directory opens like a file, but its reads fail: that is an IOError,
// not an empty graph (nor, where its end offset reads as LLONG_MAX, an
// abort in the edge vector's reserve).
TEST(GraphIoTest, DirectoryPathFailsWithIOError) {
  const std::string path = ::testing::TempDir() + "/edge_list_dir";
  std::filesystem::create_directories(path);
  const Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kIOError);
  EXPECT_NE(graph.status().message().find(path), std::string::npos)
      << graph.status().message();
  std::filesystem::remove(path);
}

// A FIFO cannot seek, so its size is unknown; it loads the graph its bytes
// load from a regular file.
TEST(GraphIoTest, FifoLoadsLikeARegularFile) {
  const std::string body = "0 1 0.5\n1 2\n2 0\n5 7 0.25\n";
  const std::string fifo = ::testing::TempDir() + "/edge_list.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(fifo) << body; });
  const Result<Graph> from_fifo = LoadEdgeList(fifo, false);
  writer.join();
  std::remove(fifo.c_str());

  const std::string path = WriteTempFile("fifo_twin.txt", body);
  const Result<Graph> from_file = LoadEdgeList(path, false);
  std::remove(path.c_str());
  ASSERT_TRUE(from_fifo.ok()) << from_fifo.status().ToString();
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_EQ(from_fifo->num_nodes(), 5);
  EXPECT_EQ(from_fifo->num_arcs(), from_file->num_arcs());
  for (NodeId v = 0; v < from_file->num_nodes(); ++v) {
    const auto fifo_out = from_fifo->OutNeighbors(v);
    const auto file_out = from_file->OutNeighbors(v);
    const auto fifo_w = from_fifo->OutWeights(v);
    const auto file_w = from_file->OutWeights(v);
    EXPECT_EQ(std::vector<NodeId>(fifo_out.begin(), fifo_out.end()),
              std::vector<NodeId>(file_out.begin(), file_out.end()));
    EXPECT_EQ(std::vector<float>(fifo_w.begin(), fifo_w.end()),
              std::vector<float>(file_w.begin(), file_w.end()));
  }
}

TEST(GraphIoTest, EmptyFileLoadsAsEmptyGraph) {
  const std::string path = WriteTempFile("empty.txt", "");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 0);
  EXPECT_EQ(graph->num_arcs(), 0);
  std::remove(path.c_str());
}

TEST(GraphIoTest, CommentOnlyFileLoadsAsEmptyGraph) {
  const std::string path = WriteTempFile("comments.txt",
                                         "# only comments here\n"
                                         "% and alt comments\n"
                                         "\n"
                                         "   \n"
                                         "\t\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 0);
  EXPECT_EQ(graph->num_arcs(), 0);
  std::remove(path.c_str());
}

TEST(GraphIoTest, CrlfLineEndingsParseWithoutCorruption) {
  // Windows-saved edge lists: every line ends "\r\n", including blank and
  // comment lines. The '\r' must not corrupt the weight column, turn blank
  // lines into parse errors, or leak into node ids.
  const std::string path = WriteTempFile("crlf.txt",
                                         "# comment\r\n"
                                         "\r\n"
                                         "0 1 0.25\r\n"
                                         "1 2\r\n"
                                         "   \r\n"
                                         "2 0 0.75\r\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 3);
  EXPECT_EQ(graph->num_arcs(), 3);
  EXPECT_FLOAT_EQ(graph->OutWeights(0)[0], 0.25f);
  EXPECT_FLOAT_EQ(graph->OutWeights(1)[0], 1.0f);  // default weight intact
  EXPECT_FLOAT_EQ(graph->OutWeights(2)[0], 0.75f);
  std::remove(path.c_str());
}

TEST(GraphIoTest, CrlfAndUnixLoadsAgree) {
  const std::string unix_path =
      WriteTempFile("agree_unix.txt", "0 1 0.5\n1 2\n2 0\n");
  const std::string crlf_path =
      WriteTempFile("agree_crlf.txt", "0 1 0.5\r\n1 2\r\n2 0\r\n");
  Result<Graph> unix_graph = LoadEdgeList(unix_path, false);
  Result<Graph> crlf_graph = LoadEdgeList(crlf_path, false);
  ASSERT_TRUE(unix_graph.ok());
  ASSERT_TRUE(crlf_graph.ok());
  EXPECT_EQ(unix_graph->num_nodes(), crlf_graph->num_nodes());
  EXPECT_EQ(unix_graph->num_arcs(), crlf_graph->num_arcs());
  for (NodeId v = 0; v < unix_graph->num_nodes(); ++v) {
    const auto unix_out = unix_graph->OutNeighbors(v);
    const auto crlf_out = crlf_graph->OutNeighbors(v);
    EXPECT_EQ(std::vector<NodeId>(unix_out.begin(), unix_out.end()),
              std::vector<NodeId>(crlf_out.begin(), crlf_out.end()));
  }
  std::remove(unix_path.c_str());
  std::remove(crlf_path.c_str());
}

TEST(GraphIoTest, DuplicateEdgesCollapseToOneArc) {
  // GraphBuilder dedups repeated (src, dst) pairs, so loading a file that
  // lists the same edge twice yields a simple graph — no parallel arcs.
  const std::string path =
      WriteTempFile("dupes.txt", "0 1 0.5\n0 1 0.5\n1 0\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 2);
  EXPECT_EQ(graph->num_arcs(), 2);
  ASSERT_EQ(graph->OutNeighbors(0).size(), 1u);
  EXPECT_EQ(graph->OutNeighbors(0)[0], 1);
  EXPECT_FLOAT_EQ(graph->OutWeights(0)[0], 0.5f);
  std::remove(path.c_str());
}

TEST(GraphIoTest, UndirectedDuplicateEdgesStaySymmetric) {
  // "0 1" listed twice in undirected mode still yields exactly one arc per
  // direction after symmetrization + dedup.
  const std::string path = WriteTempFile("dupes_undir.txt", "0 1\n1 0\n0 1\n");
  Result<Graph> graph = LoadEdgeList(path, /*undirected=*/true);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_arcs(), 2);
  ASSERT_EQ(graph->OutNeighbors(0).size(), 1u);
  ASSERT_EQ(graph->OutNeighbors(1).size(), 1u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, SelfLoopOnlyFileLoadsNodesWithoutArcs) {
  // A self-loop line is dropped before its ids are numbered, so a node that
  // only self-loops name is not in the graph: this file loads no nodes.
  const std::string path = WriteTempFile("only_loops.txt", "0 0\n5 5\n");
  Result<Graph> graph = LoadEdgeList(path, false);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 0);
  EXPECT_EQ(graph->num_arcs(), 0);
  std::remove(path.c_str());
}

TEST(GraphIoTest, SaveLoadRoundTripPreservesWeightsExactly) {
  const Graph original =
      testing::MakeGraph(4, {{0, 1, 0.25f}, {1, 2, 0.5f}, {3, 0, 1.0f}});
  const std::string path = ::testing::TempDir() + "/roundtrip_weights.txt";
  ASSERT_TRUE(SaveEdgeList(original, path).ok());
  Result<Graph> loaded = LoadEdgeList(path, false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FLOAT_EQ(loaded->OutWeights(0)[0], 0.25f);
  EXPECT_FLOAT_EQ(loaded->OutWeights(1)[0], 0.5f);
  EXPECT_FLOAT_EQ(loaded->OutWeights(3)[0], 1.0f);
  std::remove(path.c_str());

  // Weights with no short decimal form, compared arc for arc on the bits:
  // 1/3, 0.1f, the smallest denormal, FLT_MAX, a float whose shortest form
  // strtod's detour through double rounds to its neighbour, and the 1/j
  // weights of a weighted-cascade complete DAG (node j has in-degree j).
  // Both graphs name their nodes in id order, so reloading keeps the ids.
  const Graph odd = testing::MakeGraph(
      6, {{0, 1, 1.0f / 3.0f},
          {1, 2, 0.1f},
          {2, 3, std::numeric_limits<float>::denorm_min()},
          {3, 4, std::numeric_limits<float>::max()},
          {4, 5, 7.038531e-26f}});
  std::vector<Edge> dag;
  for (NodeId u = 0; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) dag.push_back({u, v, 1.0f});
  }
  const Graph cascade = WithWeightedCascadeWeights(testing::MakeGraph(8, dag));
  for (const Graph* graph : {&odd, &cascade}) {
    ASSERT_TRUE(SaveEdgeList(*graph, path).ok());
    Result<Graph> reloaded = LoadEdgeList(path, false);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->num_nodes(), graph->num_nodes());
    const std::vector<Edge> want = graph->ToEdgeList();
    const std::vector<Edge> got = reloaded->ToEdgeList();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].src, want[i].src) << "arc " << i;
      EXPECT_EQ(got[i].dst, want[i].dst) << "arc " << i;
      EXPECT_EQ(std::bit_cast<uint32_t>(got[i].weight),
                std::bit_cast<uint32_t>(want[i].weight))
          << "arc " << i << ": saved " << want[i].weight << ", reloaded "
          << got[i].weight;
    }
    std::remove(path.c_str());
  }
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  const Graph original =
      testing::MakeGraph(4, {{0, 1, 0.25f}, {1, 2, 0.5f}, {3, 0, 1.0f}});
  const std::string path = ::testing::TempDir() + "/roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(original, path).ok());
  Result<Graph> loaded = LoadEdgeList(path, false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_arcs(), original.num_arcs());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privim
