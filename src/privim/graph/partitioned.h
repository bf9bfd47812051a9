// Partitioned CSR substrate: range shards by node id, parallel CSR
// assembly, and sparse shard-local visit maps for walk-scale traversal.
//
// The public `Graph` read API is unchanged — partitioning is an internal
// property of how a Graph is *built* and how samplers *visit* it, never of
// how it is read. Three pieces live here:
//
//  * ShardLayout — the canonical range partition of [0, num_nodes) into
//    power-of-two-width shards. Derived from num_nodes alone, so every
//    subsystem (builder, fingerprint, visit maps) agrees on the same
//    partition without plumbing it around.
//
//  * BuildCsrParallel — assembles both CSR directions from per-task edge
//    lists on the global ThreadPool. Every write lands at an offset
//    precomputed from (task order, insertion order, shard layout), so the
//    result is byte-identical at any thread count and identical to the
//    serial GraphBuilder path (same stable sort, same keep-first dedup).
//    GraphBuilder::Build delegates here above a size threshold.
//
//  * ShardedVisitMap — an epoch-stamped distance/mark map that allocates
//    per-shard blocks lazily. A BFS ball or random walk pays O(ball +
//    shards entered) instead of the O(num_nodes) clear a dense array
//    needs, which is what makes per-walk subgraph extraction viable at
//    10M nodes (see docs/architecture.md "Partitioned graph substrate").

#ifndef PRIVIM_GRAPH_PARTITIONED_H_
#define PRIVIM_GRAPH_PARTITIONED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "privim/common/status.h"
#include "privim/graph/graph.h"

namespace privim {

/// Range partition of node ids into shards of power-of-two width.
///
/// The width starts at 2^kMinShardBits and doubles until at most
/// kMaxShards shards cover the graph, so small graphs get one shard
/// (zero overhead) and 10M-node graphs get a few hundred — enough to
/// keep every core busy without per-shard bookkeeping dominating.
struct ShardLayout {
  static constexpr int kMinShardBits = 12;   // >= 4096 nodes per shard
  static constexpr int64_t kMaxShards = 512;

  int64_t num_nodes = 0;
  int shard_bits = kMinShardBits;
  int64_t num_shards = 0;  // 0 only when num_nodes == 0

  /// The canonical layout for a graph of `num_nodes` nodes. Deterministic:
  /// depends on num_nodes only, never on thread count or machine.
  static ShardLayout For(int64_t num_nodes);

  /// The layout with exactly `num_shards` near-equal power-of-two-width
  /// shards (>= 1). For tests proving shard-count invariance.
  static ShardLayout WithShards(int64_t num_nodes, int64_t num_shards);

  int64_t ShardWidth() const { return int64_t{1} << shard_bits; }
  int64_t ShardOf(NodeId v) const { return static_cast<int64_t>(v) >> shard_bits; }
  int64_t ShardBegin(int64_t shard) const { return shard << shard_bits; }
  int64_t ShardEnd(int64_t shard) const {
    const int64_t end = (shard + 1) << shard_bits;
    return end < num_nodes ? end : num_nodes;
  }
};

namespace graph_internal {

/// CSR arrays produced by the parallel build; GraphBuilder (a friend of
/// Graph) moves them into place.
struct CsrParts {
  std::vector<int64_t> out_offsets;
  std::vector<NodeId> out_neighbors;
  std::vector<float> out_weights;
  std::vector<int64_t> in_offsets;
  std::vector<NodeId> in_neighbors;
  std::vector<float> in_weights;
};

/// Builds both CSR directions from the concatenation of `tasks` (task
/// order, then insertion order within a task) on the global ThreadPool.
///
/// Semantics match the serial GraphBuilder::Build path exactly: arcs are
/// stable-sorted by (src, dst), duplicates keep the first weight in
/// concatenation order, and in-neighbor lists come out sorted by source.
/// When `expand_reverse` is set every edge also contributes its reverse
/// arc, inserted immediately after the forward one (the AddEdge order for
/// undirected builders). When `validate` is set, endpoints are checked
/// with the same error codes and messages AddEdge produces; pass false
/// only for edges that already went through AddEdge.
///
/// Deterministic: the output depends only on (num_nodes, task contents,
/// task order) — never on thread count.
Result<CsrParts> BuildCsrParallel(int64_t num_nodes,
                                  std::span<const std::span<const Edge>> tasks,
                                  bool expand_reverse, bool validate);

/// Publishes graph.mem.csr_bytes / graph.build.parallel_builds and
/// refreshes the resident high-water gauges after a sharded build of
/// `csr_bytes` bytes.
void RecordBuildMetrics(int64_t csr_bytes);

}  // namespace graph_internal

/// Sparse distance/mark map over the nodes of one graph, backed by
/// lazily-allocated per-shard blocks with epoch-stamped entries.
///
/// `NextEpoch()` invalidates every entry in O(1); `Set`/`Get` are O(1)
/// with block allocation on first touch of a shard. A value of -1 is
/// reserved to mean "unset this epoch" (BFS distance convention).
///
/// Not thread-safe: intended as per-task scratch, constructed (or reused
/// across the walks of one task) inside the parallel region.
class ShardedVisitMap {
 public:
  explicit ShardedVisitMap(const ShardLayout& layout);

  /// Invalidates all entries. O(1) except once every 2^32 epochs.
  void NextEpoch();

  /// Value set this epoch, or -1 if unset.
  int32_t Get(NodeId v) const {
    const Block& block = blocks_[static_cast<size_t>(layout_.ShardOf(v))];
    if (block.slots == nullptr) return -1;
    const Slot& slot =
        block.slots[static_cast<size_t>(v) & (layout_.ShardWidth() - 1)];
    return slot.epoch == epoch_ ? slot.value : -1;
  }

  /// Sets v's value for the current epoch (allocating its shard block on
  /// first touch). `value` must be >= 0.
  void Set(NodeId v, int32_t value);

  /// Shard blocks ever allocated by this map.
  int64_t shards_allocated() const { return shards_allocated_; }
  /// Shards written to since the last NextEpoch.
  int64_t shards_touched() const { return shards_touched_; }

  const ShardLayout& layout() const { return layout_; }

 private:
  struct Slot {
    uint32_t epoch = 0;  // 0 is never a live epoch
    int32_t value = 0;
  };
  struct Block {
    std::unique_ptr<Slot[]> slots;
    uint32_t touched_epoch = 0;
  };

  ShardLayout layout_;
  uint32_t epoch_ = 1;
  std::vector<Block> blocks_;
  int64_t shards_allocated_ = 0;
  int64_t shards_touched_ = 0;
};

}  // namespace privim

#endif  // PRIVIM_GRAPH_PARTITIONED_H_
