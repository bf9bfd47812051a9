#include "privim/graph/graph_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

bool IsBlank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

// Parses all of `token` as a node id.
bool ParseNodeId(const std::string& token, int64_t* id) {
  char* end = nullptr;
  errno = 0;
  *id = std::strtoll(token.c_str(), &end, 10);
  return !token.empty() && *end == '\0' && errno == 0;
}

// Parses the optional weight column; "" when `token` is a non-negative
// number that a float holds finitely, otherwise why it is not.
std::string ParseWeight(const std::string& token, double* weight) {
  char* end = nullptr;
  *weight = std::strtod(token.c_str(), &end);
  if (*end != '\0') return "weight \"" + token + "\" is not a number";
  if (std::isnan(*weight) ||
      std::fabs(*weight) > std::numeric_limits<float>::max()) {
    return "weight \"" + token + "\" is not finite";
  }
  if (*weight < 0) return "weight \"" + token + "\" is negative";
  return "";
}

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path, bool undirected) {
  obs::TraceSpan span("graph/load_edge_list");
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open: " + path);

  // Pre-size from the file length (~16 bytes per "src dst\n" line is a
  // conservative floor for large edge lists) so neither the edge vector nor
  // the id-remap table rehashes or regrows inside the parse loop.
  file.seekg(0, std::ios::end);
  const std::streamoff file_bytes = file.tellg();
  file.seekg(0, std::ios::beg);
  const size_t estimated_edges =
      file_bytes > 0 ? static_cast<size_t>(file_bytes) / 16 + 1 : 1;

  std::unordered_map<int64_t, NodeId> remap;
  remap.reserve(estimated_edges);
  std::vector<Edge> edges;
  edges.reserve(estimated_edges);
  auto intern = [&remap](int64_t raw) {
    auto [it, inserted] =
        remap.emplace(raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  int64_t self_loops = 0;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    // Tolerate CRLF edge lists: getline keeps the '\r', which would
    // otherwise corrupt the weight column or reject blank lines.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '%' || IsBlank(line)) {
      continue;
    }
    std::istringstream fields(line);
    std::string src_token, dst_token, weight_token, extra_token;
    fields >> src_token >> dst_token >> weight_token >> extra_token;
    int64_t raw_src = 0, raw_dst = 0;
    double weight = 1.0;
    std::string reason;
    if (!ParseNodeId(src_token, &raw_src) ||
        !ParseNodeId(dst_token, &raw_dst)) {
      reason = "expected integer node ids \"src dst [weight]\"";
    } else if (!weight_token.empty()) {
      reason = ParseWeight(weight_token, &weight);
    }
    if (reason.empty() && !extra_token.empty()) {
      reason = "unexpected field \"" + extra_token + "\" after the weight";
    }
    if (!reason.empty()) {
      return Status::IOError("malformed line " + std::to_string(line_number) +
                             " in " + path + ": " + reason);
    }
    if (raw_src == raw_dst) {  // drop self-loops (counted, not fatal)
      ++self_loops;
      continue;
    }
    edges.push_back(
        {intern(raw_src), intern(raw_dst), static_cast<float>(weight)});
  }

  static obs::Counter* edges_loaded =
      obs::GlobalMetrics().GetCounter("graph.load.edges");
  static obs::Counter* loops_dropped =
      obs::GlobalMetrics().GetCounter("graph.load.self_loops_dropped");
  edges_loaded->Increment(edges.size());
  loops_dropped->Increment(static_cast<uint64_t>(self_loops));

  GraphBuilder builder(static_cast<int64_t>(remap.size()), undirected);
  PRIVIM_RETURN_NOT_OK(builder.AddEdges(edges));
  return builder.Build();
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  obs::TraceSpan span("graph/save_edge_list");
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open for write: " + path);
  file << "# privim edge list: src dst weight\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neighbors = graph.OutNeighbors(u);
    const auto weights = graph.OutWeights(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      file << u << ' ' << neighbors[i] << ' ' << weights[i] << '\n';
    }
  }
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace privim
