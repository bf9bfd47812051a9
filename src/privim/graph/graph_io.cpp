#include "privim/graph/graph_io.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

// Bytes per read (fewer for a smaller file); a line longer than the buffer
// doubles it.
constexpr size_t kReadBlockBytes = size_t{1} << 20;

bool IsBlank(std::string_view line) {
  for (char c : line) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

// C-locale whitespace: what istringstream's >> skips between fields.
bool IsFieldSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Cuts the next field off the front of `*rest`; empty when none is left.
std::string_view NextField(std::string_view* rest) {
  size_t begin = 0;
  while (begin < rest->size() && IsFieldSpace((*rest)[begin])) ++begin;
  size_t end = begin;
  while (end < rest->size() && !IsFieldSpace((*rest)[end])) ++end;
  const std::string_view field = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return field;
}

// Parses all of `field` as a node id: an optional '+', then decimal digits
// that fit an int64. A '-' or a NUL byte is no digit, so both fail.
bool ParseNodeId(std::string_view field, int64_t* id) {
  if (!field.empty() && field[0] == '+') field.remove_prefix(1);
  if (field.empty() || field[0] < '0' || field[0] > '9') return false;
  const char* end = field.data() + field.size();
  const auto [stop, error] = std::from_chars(field.data(), end, *id);
  return error == std::errc() && stop == end;
}

// Parses the optional weight column with strtod; "" when `field` is a
// non-negative number that a float holds finitely, otherwise why it is not.
std::string ParseWeight(std::string_view field, double* weight) {
  // strtod would stop at a NUL, and quoting it would cut the message short.
  if (field.find('\0') != std::string_view::npos) {
    return "weight holds a NUL byte";
  }
  const std::string token(field);  // strtod reads a terminated string
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

struct RawEdge {
  int64_t src = 0;
  int64_t dst = 0;
  float weight = 1.0f;
};

// Parses one data line, "src dst [weight]"; "" on success, otherwise why
// the line is malformed.
std::string ParseLine(std::string_view line, RawEdge* edge) {
  const std::string_view src = NextField(&line);
  const std::string_view dst = NextField(&line);
  const std::string_view weight = NextField(&line);
  const std::string_view extra = NextField(&line);
  for (const std::string_view id : {src, dst}) {
    if (!id.empty() && id[0] == '-') return "node ids must not be negative";
  }
  if (!ParseNodeId(src, &edge->src) || !ParseNodeId(dst, &edge->dst)) {
    return "expected integer node ids \"src dst [weight]\"";
  }
  double value = 1.0;
  if (!weight.empty()) {
    std::string reason = ParseWeight(weight, &value);
    if (!reason.empty()) return reason;
  }
  if (!extra.empty()) {
    return "unexpected field \"" + std::string(extra) + "\" after the weight";
  }
  edge->weight = static_cast<float>(value);
  return "";
}

// Numbers raw ids 0, 1, 2, ... in order of first appearance. Ids below
// `dense_limit` index a table that grows to the largest one seen; larger
// ids go through a hash map. Both hand out the one next number.
class IdNumbering {
 public:
  explicit IdNumbering(int64_t dense_limit) : dense_limit_(dense_limit) {}

  NodeId Intern(int64_t raw) {
    if (raw >= dense_limit_) {
      const auto [it, inserted] =
          sparse_.emplace(raw, static_cast<NodeId>(count_));
      if (inserted) ++count_;
      return it->second;
    }
    if (raw >= static_cast<int64_t>(dense_.size())) {
      const int64_t grown = std::max<int64_t>(
          raw + 1, 2 * static_cast<int64_t>(dense_.size()));
      dense_.resize(static_cast<size_t>(std::min(grown, dense_limit_)), -1);
    }
    NodeId& id = dense_[static_cast<size_t>(raw)];
    if (id < 0) id = static_cast<NodeId>(count_++);
    return id;
  }

  int64_t count() const { return count_; }

 private:
  int64_t dense_limit_;
  std::vector<NodeId> dense_;  // -1: not seen yet
  std::unordered_map<int64_t, NodeId> sparse_;
  int64_t count_ = 0;
};

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path, bool undirected) {
  obs::TraceSpan span("graph/load_edge_list");
  // A directory opens like a file, but every read fails, and on ext4 its
  // end offset reads as LLONG_MAX. (stat, not std::filesystem: with
  // is_directory a 20k-node load measured ~10% slower, though the call
  // itself took microseconds.)
  struct stat info;
  if (::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
    return Status::IOError("is a directory: " + path);
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open: " + path);
  file.seekg(0, std::ios::end);
  // -1 for a stream that cannot seek (a FIFO): its size is unknown, and the
  // failed seek's failbit is cleared so the reads below still run.
  const std::streamoff file_bytes = file.tellg();
  if (file_bytes >= 0) {
    file.seekg(0, std::ios::beg);
  } else {
    file.clear();
  }

  // Ids below B/4, for a file of B bytes, index the table: that covers the
  // 0..n-1 numbering of generated and most SNAP files, whose ids take
  // several bytes each, and keeps the table no larger than the file.
  IdNumbering ids(file_bytes > 0 ? static_cast<int64_t>(file_bytes) / 4 : 0);
  // Sized for ~8 bytes a line; the assembly takes the vector as its one
  // task, so no edge is copied before it is scattered.
  std::vector<Edge> edges;
  edges.reserve(file_bytes > 0 ? static_cast<size_t>(file_bytes) / 8 : 0);
  int64_t self_loops = 0;
  int64_t line_number = 0;
  std::vector<char> buffer(
      file_bytes >= 0
          ? std::min(kReadBlockBytes, static_cast<size_t>(file_bytes) + 1)
          : kReadBlockBytes);
  size_t carried = 0;  // bytes of an unfinished line at the buffer's front
  for (bool at_end = false; !at_end;) {
    if (carried == buffer.size()) buffer.resize(2 * buffer.size());
    file.read(buffer.data() + carried,
              static_cast<std::streamsize>(buffer.size() - carried));
    if (file.bad()) return Status::IOError("read failed: " + path);
    const size_t got = static_cast<size_t>(file.gcount());
    at_end = got == 0;  // what is carried is then the unterminated last line
    std::string_view rest(buffer.data(), carried + got);
    while (!rest.empty()) {
      size_t line_end = rest.find('\n');
      if (line_end == std::string_view::npos) {
        if (!at_end) break;
        line_end = rest.size();
      }
      std::string_view line = rest.substr(0, line_end);
      rest.remove_prefix(std::min(line_end + 1, rest.size()));
      ++line_number;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty() || line[0] == '#' || line[0] == '%' || IsBlank(line)) {
        continue;
      }
      RawEdge raw;
      const std::string reason = ParseLine(line, &raw);
      if (!reason.empty()) {
        return Status::IOError("malformed line " +
                               std::to_string(line_number) + " in " + path +
                               ": " + reason);
      }
      if (raw.src == raw.dst) {  // drop self-loops (counted, not fatal)
        ++self_loops;
        continue;
      }
      const NodeId src = ids.Intern(raw.src);
      edges.push_back({src, ids.Intern(raw.dst), raw.weight});
    }
    carried = rest.size();
    std::memmove(buffer.data(), rest.data(), carried);
  }

  static obs::Counter* edges_loaded =
      obs::GlobalMetrics().GetCounter("graph.load.edges");
  static obs::Counter* loops_dropped =
      obs::GlobalMetrics().GetCounter("graph.load.self_loops_dropped");
  edges_loaded->Increment(edges.size());
  loops_dropped->Increment(static_cast<uint64_t>(self_loops));

  std::vector<std::vector<Edge>> tasks;
  tasks.push_back(std::move(edges));
  return GraphBuilder::BuildParallel(ids.count(), undirected,
                                     std::move(tasks));
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
      // The float's shortest round-trip form, unless the loader would not
      // read it back to the same bits: strtod's detour through double can
      // round it to a neighbour (7.038531e-26), and FLT_MAX's form reads
      // as a double above FLT_MAX. The double's form names the float
      // exactly.
      char text[32];
      char* end = std::to_chars(text, text + sizeof(text), weights[i]).ptr;
      double reread = 0.0;
      if (!ParseWeight(std::string_view(text, end - text), &reread).empty() ||
          std::bit_cast<uint32_t>(static_cast<float>(reread)) !=
              std::bit_cast<uint32_t>(weights[i])) {
        end = std::to_chars(text, text + sizeof(text),
                            static_cast<double>(weights[i]))
                  .ptr;
      }
      file << u << ' ' << neighbors[i] << ' ';
      file.write(text, end - text);
      file << '\n';
    }
  }
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace privim
