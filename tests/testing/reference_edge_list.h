// Reference edge-list loader: the line-at-a-time LoadEdgeList that the
// one-pass block parser replaced, kept as a test oracle (like
// reference_csr.h keeps the serial CSR body).
//
// The library reads fixed-size blocks, splits fields by hand, parses ids
// with std::from_chars, numbers them through a dense table (a hash map only
// above a bound derived from the file size) and hands its edges to the
// parallel assembly. The reference does it the plain way: std::getline, an
// istringstream per line, strtoll/strtod, one std::unordered_map and a
// GraphBuilder fed through AddEdges. It increments the same graph.load.*
// counters, so the tests can demand the same bytes (all six CSR arrays),
// the same status message for every file it rejects and the same counter
// deltas.
//
// The one intended difference: the library rejects what this loader let
// through by accident. strtoll accepts a leading '-', and strtoll/strtod
// stop at a NUL byte while the end check only looks for '\0', so "-1 2",
// "0 1\0x" and "0 1 0.5\0zz" load here and fail there.

#ifndef PRIVIM_TESTS_TESTING_REFERENCE_EDGE_LIST_H_
#define PRIVIM_TESTS_TESTING_REFERENCE_EDGE_LIST_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "privim/graph/graph.h"
#include "privim/obs/metrics.h"

namespace privim {
namespace testing {
namespace reference_edge_list_internal {

inline bool IsBlank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

// Parses all of `token` as a node id.
inline bool ParseNodeId(const std::string& token, int64_t* id) {
  char* end = nullptr;
  errno = 0;
  *id = std::strtoll(token.c_str(), &end, 10);
  return !token.empty() && *end == '\0' && errno == 0;
}

// Parses the optional weight column; "" when `token` is a non-negative
// number that a float holds finitely, otherwise why it is not.
inline std::string ParseWeight(const std::string& token, double* weight) {
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

}  // namespace reference_edge_list_internal

/// The graph (or the IOError) the line-at-a-time loader gives for `path`.
inline Result<Graph> ReferenceLoadEdgeList(const std::string& path,
                                           bool undirected) {
  using reference_edge_list_internal::IsBlank;
  using reference_edge_list_internal::ParseNodeId;
  using reference_edge_list_internal::ParseWeight;
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

}  // namespace testing
}  // namespace privim

#endif  // PRIVIM_TESTS_TESTING_REFERENCE_EDGE_LIST_H_
