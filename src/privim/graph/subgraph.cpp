#include "privim/graph/subgraph.h"

#include <string>
#include <utility>

#include "privim/graph/partitioned.h"

namespace privim {
namespace {

// Global -> local id lookup over one node set: open addressing with linear
// probing in a power-of-two table kept at most half full.
class LocalIdTable {
 public:
  explicit LocalIdTable(size_t num_keys) {
    while ((size_t{1} << bits_) < 2 * num_keys) ++bits_;
    slots_.assign(size_t{1} << bits_, Slot{});
  }

  // The local id of `global`; inserts `local` when `global` is new.
  NodeId FindOrInsert(NodeId global, NodeId local) {
    Slot& slot = slots_[Probe(global)];
    if (slot.global == -1) slot = {global, local};
    return slot.local;
  }

  // The local id of `global`, or -1 when it is not in the set.
  NodeId Find(NodeId global) const { return slots_[Probe(global)].local; }

 private:
  struct Slot {
    NodeId global = -1;
    NodeId local = -1;
  };

  // The slot holding `global`, or the empty slot where it would go.
  size_t Probe(NodeId global) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(global)) *
         0x9E3779B97F4A7C15ULL) >>
        (64 - bits_));
    while (slots_[i].global != global && slots_[i].global != -1) {
      i = (i + 1) & mask;
    }
    return i;
  }

  int bits_ = 1;
  std::vector<Slot> slots_;
};

}  // namespace

Result<Subgraph> InducedSubgraph(const Graph& graph,
                                 const std::vector<NodeId>& nodes) {
  Subgraph sub;
  LocalIdTable local_of(nodes.size());
  for (NodeId global : nodes) {
    if (global < 0 || global >= graph.num_nodes()) {
      return Status::OutOfRange("subgraph node out of range: " +
                                std::to_string(global));
    }
    const NodeId next = static_cast<NodeId>(sub.global_ids.size());
    if (local_of.FindOrInsert(global, next) == next) {
      sub.global_ids.push_back(global);
    }
  }
  const int64_t k = static_cast<int64_t>(sub.global_ids.size());

  // The parent holds no duplicate arcs and no self-loops, so the kept arcs
  // need no dedup; they only need each row in local-id order. Collect them
  // row by row in the parent's order, then order them by two counting
  // passes: the in-CSR by target (sources ascending), and the out-CSR as its
  // transpose (targets ascending).
  graph_internal::CsrParts csr;
  csr.out_offsets.assign(k + 1, 0);
  csr.in_offsets.assign(k + 1, 0);
  // Upper bound: every out-arc of a member could stay inside the subgraph.
  int64_t arc_bound = 0;
  for (NodeId global : sub.global_ids) arc_bound += graph.OutDegree(global);
  std::vector<NodeId> kept_targets;
  std::vector<float> kept_weights;
  kept_targets.reserve(arc_bound);
  kept_weights.reserve(arc_bound);
  for (int64_t src = 0; src < k; ++src) {
    const auto neighbors = graph.OutNeighbors(sub.global_ids[src]);
    const auto weights = graph.OutWeights(sub.global_ids[src]);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const NodeId dst = local_of.Find(neighbors[i]);
      if (dst < 0) continue;
      kept_targets.push_back(dst);
      kept_weights.push_back(weights[i]);
      ++csr.in_offsets[dst + 1];
    }
    csr.out_offsets[src + 1] = static_cast<int64_t>(kept_targets.size());
  }
  for (int64_t v = 0; v < k; ++v) csr.in_offsets[v + 1] += csr.in_offsets[v];

  const size_t num_arcs = kept_targets.size();
  csr.in_neighbors.resize(num_arcs);
  csr.in_weights.resize(num_arcs);
  std::vector<int64_t> cursor(csr.in_offsets.begin(), csr.in_offsets.end() - 1);
  for (int64_t src = 0; src < k; ++src) {
    for (int64_t i = csr.out_offsets[src]; i < csr.out_offsets[src + 1]; ++i) {
      const int64_t slot = cursor[kept_targets[i]]++;
      csr.in_neighbors[slot] = static_cast<NodeId>(src);
      csr.in_weights[slot] = kept_weights[i];
    }
  }

  csr.out_neighbors.resize(num_arcs);
  csr.out_weights.resize(num_arcs);
  cursor.assign(csr.out_offsets.begin(), csr.out_offsets.end() - 1);
  for (int64_t dst = 0; dst < k; ++dst) {
    for (int64_t i = csr.in_offsets[dst]; i < csr.in_offsets[dst + 1]; ++i) {
      const int64_t slot = cursor[csr.in_neighbors[i]]++;
      csr.out_neighbors[slot] = static_cast<NodeId>(dst);
      csr.out_weights[slot] = csr.in_weights[i];
    }
  }

  sub.local = Graph::FromCsr(k, std::move(csr));
  return sub;
}

}  // namespace privim
