// gen: the benchmark's own seeded inputs.
//
// The graph is a preferential-attachment (Barabasi-Albert) graph with a
// random id relabel and shuffled edge order, unit weights, written as an
// undirected "u v" edge list. The generator and its RNG live here, not in
// privim, so a change to privim's generators never changes what is
// measured. The request schedule is drawn against the graph exactly as
// LoadEdgeList numbers it (ids are densely remapped on load), so every
// node id in it is valid for the served graph.
//
//   gen --nodes N --m M --seed S --graph-out G
//       [--shares cls=share,... --requests R --requests-out F]
//       [--probes-out P]
//
// Prints {"graph_digest", "schedule_digest", "probes_digest", "nodes",
// "arcs"}; the digests are FNV-1a over the exact file bytes. The probes
// file holds a fixed number of requests of every class for the traced
// per-class layer timings.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "privim/graph/graph_io.h"

namespace perfbench {
namespace {

// SplitMix64 stream; the benchmark's inputs depend only on this and the seed.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// In [0, bound); the modulo bias is far below anything measured.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

std::string BarabasiAlbertEdgeList(int64_t nodes, int64_t m, InputRng* rng) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  std::vector<int64_t> endpoints;  // each node once per incident edge
  for (int64_t v = 1; v <= m; ++v) {
    for (int64_t u = 0; u < v; ++u) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<int64_t> targets;
  for (int64_t v = m + 1; v < nodes; ++v) {
    targets.clear();
    while (static_cast<int64_t>(targets.size()) < m) {
      const int64_t u = endpoints[rng->Below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), u) == targets.end()) {
        targets.push_back(u);
      }
    }
    for (const int64_t u : targets) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<int64_t> label(static_cast<size_t>(nodes));
  std::iota(label.begin(), label.end(), 0);
  for (size_t i = label.size(); i > 1; --i) {
    std::swap(label[i - 1], label[rng->Below(i)]);
  }
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng->Below(i)]);
  }
  std::string out;
  out.reserve(edges.size() * 14);
  for (const auto& [u, v] : edges) {
    out += std::to_string(label[static_cast<size_t>(u)]);
    out += ' ';
    out += std::to_string(label[static_cast<size_t>(v)]);
    out += '\n';
  }
  return out;
}

std::string NodeList(const std::vector<privim::NodeId>& nodes) {
  std::string out = "[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(nodes[i]);
  }
  return out + "]";
}

// Up to `size` nodes in BFS order from `root`, topped up with uniform nodes
// when the component is smaller, so the induced subgraph has real edges.
std::vector<privim::NodeId> Neighbourhood(const privim::Graph& graph,
                                          privim::NodeId root, size_t size,
                                          InputRng* rng) {
  std::vector<privim::NodeId> out = {root};
  for (size_t head = 0; head < out.size() && out.size() < size; ++head) {
    for (const privim::NodeId u : graph.OutNeighbors(out[head])) {
      if (out.size() >= size) break;
      if (std::find(out.begin(), out.end(), u) == out.end()) out.push_back(u);
    }
  }
  while (out.size() < size) {
    const auto v = static_cast<privim::NodeId>(rng->Below(graph.num_nodes()));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

// One request body (everything after the id) of the given class. The
// per-request "seed" makes each drawn request a distinct cache key; only
// the "repeat" class of a mix hits the response cache.
std::string Body(const privim::Graph& graph, const std::string& cls,
                 InputRng* rng) {
  const auto node = [&] {
    return static_cast<privim::NodeId>(rng->Below(graph.num_nodes()));
  };
  const std::string seed = ",\"seed\":" + std::to_string(rng->Below(1u << 30));
  const std::string k = std::to_string(10 + rng->Below(41));
  if (cls == "lookup") {
    std::vector<privim::NodeId> nodes;
    const uint64_t count = 1 + rng->Below(3);
    for (uint64_t i = 0; i < count; ++i) nodes.push_back(node());
    return "\"op\":\"influence\",\"nodes\":" + NodeList(nodes) + seed;
  }
  if (cls == "subgraph") {
    return "\"op\":\"influence\",\"subgraph\":" +
           NodeList(Neighbourhood(graph, node(), 40, rng)) + seed;
  }
  if (cls == "topk_model") {
    return "\"op\":\"topk\",\"method\":\"model\",\"k\":" + k + seed;
  }
  if (cls == "sketch") {
    return "\"op\":\"topk\",\"method\":\"sketch\",\"k\":" + k +
           ",\"steps\":1" + seed;
  }
  if (cls == "celf") {
    return "\"op\":\"topk\",\"method\":\"celf\",\"k\":" + k +
           ",\"steps\":1" + seed;
  }
  if (cls == "ris") {
    return "\"op\":\"topk\",\"method\":\"ris\",\"k\":" + k +
           ",\"rr_sets\":2000,\"steps\":1" + seed;
  }
  std::vector<privim::NodeId> seeds;  // spread
  while (seeds.size() < 10) {
    const privim::NodeId v = node();
    if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
  }
  return "\"op\":\"spread\",\"seeds\":" + NodeList(seeds) +
         ",\"simulations\":200,\"steps\":2" + seed;
}

// One class of a request mix and its share of the requests. run.py derives
// the shares from the per-class costs in workloads.json. The "repeat" class
// re-sends one of the previous 256 requests verbatim (with a fresh id), so
// the response cache has hits to serve.
struct Share {
  std::string cls;
  double share = 0.0;
};

constexpr const char* kClasses[] = {"lookup", "subgraph", "topk_model",
                                    "sketch", "celf",     "ris",
                                    "spread", "repeat"};

// "cls=share,cls=share,..." with known classes and shares summing to 1.
privim::Result<std::vector<Share>> ParseShares(const std::string& spec) {
  std::vector<Share> mix;
  std::stringstream in(spec);
  std::string item;
  double total = 0.0;
  while (std::getline(in, item, ',')) {
    const size_t eq = item.find('=');
    Share s;
    s.cls = item.substr(0, eq);
    s.share = eq == std::string::npos
                  ? -1.0
                  : std::strtod(item.c_str() + eq + 1, nullptr);
    if (std::find(std::begin(kClasses), std::end(kClasses), s.cls) ==
            std::end(kClasses) ||
        !(s.share > 0.0)) {
      return privim::Status::InvalidArgument("bad share " + item);
    }
    total += s.share;
    mix.push_back(s);
  }
  if (mix.empty() || std::abs(total - 1.0) > 1e-6 ||
      (mix.size() == 1 && mix[0].cls == "repeat")) {
    return privim::Status::InvalidArgument("shares must sum to 1: " + spec);
  }
  return mix;
}

const std::string& Pick(const std::vector<Share>& mix, InputRng* rng) {
  double u = rng->Unit();
  for (const Share& s : mix) {
    if (u < s.share) return s.cls;
    u -= s.share;
  }
  return mix.back().cls;
}

// Probe requests per class for the traced per-class layer timings.
struct ProbeCount {
  const char* cls;
  int count;
};
constexpr ProbeCount kProbes[] = {{"lookup", 60}, {"subgraph", 60},
                                  {"topk_model", 20}, {"sketch", 60},
                                  {"celf", 12}, {"ris", 20},
                                  {"spread", 40}};

std::string Schedule(const privim::Graph& graph, const std::vector<Share>& mix,
                     int64_t count, InputRng* rng) {
  std::vector<std::string> bodies;
  bodies.reserve(static_cast<size_t>(count));
  std::string out;
  for (int64_t i = 0; i < count; ++i) {
    std::string cls;
    do {
      cls = Pick(mix, rng);
    } while (cls == "repeat" && bodies.empty());
    std::string body;
    if (cls == "repeat") {
      const size_t window = std::min<size_t>(bodies.size(), 256);
      body = bodies[bodies.size() - 1 - rng->Below(window)];
    } else {
      body = Body(graph, cls, rng);
    }
    out += "{\"id\":\"r" + std::to_string(i) + "\"," + body + "}\n";
    bodies.push_back(std::move(body));
  }
  return out;
}

privim::Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();
  return out.good() ? privim::Status::OK()
                    : privim::Status::IOError("cannot write " + path);
}

}  // namespace

int GenMain(const Args& args) {
  const int64_t nodes = args.Int("nodes", 20000);
  const int64_t m = args.Int("m", 5);
  const std::string graph_out = args.Str("graph-out", "");
  if (nodes <= m + 1 || m < 1 || graph_out.empty()) {
    return Fail(privim::Status::InvalidArgument(
        "gen needs --nodes > --m + 1, --m >= 1 and --graph-out"));
  }
  InputRng rng(static_cast<uint64_t>(args.Int("seed", 1)));
  const std::string edges = BarabasiAlbertEdgeList(nodes, m, &rng);
  if (privim::Status s = WriteFile(graph_out, edges); !s.ok()) return Fail(s);

  privim::Result<privim::Graph> graph =
      privim::LoadEdgeList(graph_out, /*undirected=*/true);
  if (!graph.ok()) return Fail(graph.status());

  JsonOut out;
  out.Str("graph_digest", Hex(Fnv1a(edges)))
      .Int("nodes", graph->num_nodes())
      .Int("arcs", graph->num_arcs());
  if (const std::string spec = args.Str("shares", ""); !spec.empty()) {
    privim::Result<std::vector<Share>> mix = ParseShares(spec);
    if (!mix.ok()) return Fail(mix.status());
    // The schedule draws from its own stream so the graph does not shift
    // when the request count changes.
    InputRng schedule_rng(Fnv1a("schedule", static_cast<uint64_t>(
                                                args.Int("seed", 1))));
    const std::string lines = Schedule(graph.value(), mix.value(),
                                       args.Int("requests", 1000),
                                       &schedule_rng);
    const std::string path = args.Str("requests-out", "");
    if (path.empty()) {
      return Fail(
          privim::Status::InvalidArgument("--shares needs --requests-out"));
    }
    if (privim::Status s = WriteFile(path, lines); !s.ok()) return Fail(s);
    out.Str("schedule_digest", Hex(Fnv1a(lines)));
  }
  if (const std::string path = args.Str("probes-out", ""); !path.empty()) {
    InputRng probe_rng(Fnv1a("probes", static_cast<uint64_t>(
                                           args.Int("seed", 1))));
    std::string lines;
    for (const ProbeCount& probe : kProbes) {
      for (int i = 0; i < probe.count; ++i) {
        lines += "{\"id\":\"p-" + std::string(probe.cls) + "-" +
                 std::to_string(i) + "\"," +
                 Body(graph.value(), probe.cls, &probe_rng) + "}\n";
      }
    }
    if (privim::Status s = WriteFile(path, lines); !s.ok()) return Fail(s);
    out.Str("probes_digest", Hex(Fnv1a(lines)));
  }
  return Emit(out);
}

}  // namespace perfbench
