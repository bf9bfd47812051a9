#include "privim/graph/partitioned.h"

#include <algorithm>
#include <limits>
#include <string>

#include "privim/common/mem_stats.h"
#include "privim/common/thread_pool.h"
#include "privim/obs/metrics.h"

namespace privim {

ShardLayout ShardLayout::For(int64_t num_nodes) {
  ShardLayout layout;
  layout.num_nodes = num_nodes;
  layout.shard_bits = kMinShardBits;
  if (num_nodes <= 0) return layout;
  auto shards_at = [num_nodes](int bits) {
    return (num_nodes + (int64_t{1} << bits) - 1) >> bits;
  };
  while (shards_at(layout.shard_bits) > kMaxShards) ++layout.shard_bits;
  layout.num_shards = shards_at(layout.shard_bits);
  return layout;
}

ShardLayout ShardLayout::WithShards(int64_t num_nodes, int64_t num_shards) {
  ShardLayout layout;
  layout.num_nodes = num_nodes;
  layout.shard_bits = 0;
  if (num_nodes <= 0) return layout;
  if (num_shards < 1) num_shards = 1;
  auto shards_at = [num_nodes](int bits) {
    return (num_nodes + (int64_t{1} << bits) - 1) >> bits;
  };
  while (shards_at(layout.shard_bits) > num_shards) ++layout.shard_bits;
  layout.num_shards = shards_at(layout.shard_bits);
  return layout;
}

namespace graph_internal {
namespace {

bool EdgeBeforeByEndpoints(const Edge& a, const Edge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

bool EdgeSameEndpoints(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst;
}

}  // namespace

void RecordBuildMetrics(int64_t csr_bytes) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  static obs::Gauge* csr = metrics.GetGauge("graph.mem.csr_bytes");
  static obs::Counter* parallel_builds =
      metrics.GetCounter("graph.build.parallel_builds");
  csr->Set(static_cast<double>(csr_bytes));
  parallel_builds->Increment(1);
  // Resident high-water from the kernel: the linear-memory evidence the
  // large-graph CI smoke asserts on (graph.mem.hwm_bytes).
  UpdateGraphMemGauges();
}

Result<CsrParts> BuildCsrParallel(int64_t num_nodes,
                                  std::span<const std::span<const Edge>> tasks,
                                  bool expand_reverse, bool validate) {
  CsrParts parts;
  parts.out_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  parts.in_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  if (num_nodes == 0) {
    for (const auto& task : tasks) {
      if (!task.empty()) {
        const Edge& e = task.front();
        return Status::OutOfRange("edge endpoint out of range: (" +
                                  std::to_string(e.src) + ", " +
                                  std::to_string(e.dst) + ")");
      }
    }
    return parts;
  }

  const ShardLayout layout = ShardLayout::For(num_nodes);
  const int64_t S = layout.num_shards;
  const int64_t T = static_cast<int64_t>(tasks.size());
  ThreadPool& pool = GlobalThreadPool();

  // Phase 1: validate and count arcs per (task, src-shard). Every later
  // write lands at an offset derived from these counts, so the assembled
  // arrays depend only on task order and insertion order — never on which
  // worker ran what.
  std::vector<int64_t> counts(static_cast<size_t>(T * S), 0);
  std::vector<Status> task_status(static_cast<size_t>(T));
  pool.ParallelFor(static_cast<size_t>(T), [&](size_t t) {
    int64_t* my = counts.data() + static_cast<int64_t>(t) * S;
    for (const Edge& e : tasks[t]) {
      if (validate) {
        if (e.src < 0 || e.src >= num_nodes || e.dst < 0 ||
            e.dst >= num_nodes) {
          task_status[t] = Status::OutOfRange(
              "edge endpoint out of range: (" + std::to_string(e.src) + ", " +
              std::to_string(e.dst) + ")");
          return;
        }
        if (e.src == e.dst) {
          task_status[t] = Status::InvalidArgument(
              "self-loop rejected at node " + std::to_string(e.src));
          return;
        }
      }
      ++my[layout.ShardOf(e.src)];
      if (expand_reverse) ++my[layout.ShardOf(e.dst)];
    }
  });
  for (int64_t t = 0; t < T; ++t) {
    if (!task_status[static_cast<size_t>(t)].ok()) {
      return task_status[static_cast<size_t>(t)];
    }
  }

  // Per-(task, shard) write cursors: within a shard bucket, tasks occupy
  // consecutive ranges in task order.
  std::vector<int64_t> cursor(static_cast<size_t>(T * S));
  std::vector<int64_t> shard_total(static_cast<size_t>(S), 0);
  for (int64_t s = 0; s < S; ++s) {
    int64_t run = 0;
    for (int64_t t = 0; t < T; ++t) {
      cursor[static_cast<size_t>(t * S + s)] = run;
      run += counts[static_cast<size_t>(t * S + s)];
    }
    shard_total[static_cast<size_t>(s)] = run;
  }

  // Shard buckets, exact-sized from the counting pass (the pre-sizing
  // contract: the scatter loop never regrows).
  std::vector<std::vector<Edge>> bucket(static_cast<size_t>(S));
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t s) {
    bucket[s].resize(static_cast<size_t>(shard_total[s]));
  });

  // Phase 2: scatter into src-shard buckets. The reverse arc of an
  // undirected edge goes immediately after the forward one, matching
  // AddEdge's insertion order.
  pool.ParallelFor(static_cast<size_t>(T), [&](size_t t) {
    int64_t* cur = cursor.data() + static_cast<int64_t>(t) * S;
    for (const Edge& e : tasks[t]) {
      const int64_t s = layout.ShardOf(e.src);
      bucket[static_cast<size_t>(s)][static_cast<size_t>(cur[s]++)] = e;
      if (expand_reverse) {
        const int64_t s2 = layout.ShardOf(e.dst);
        bucket[static_cast<size_t>(s2)][static_cast<size_t>(cur[s2]++)] = {
            e.dst, e.src, e.weight};
      }
    }
  });

  // Phase 3: per-shard stable sort + keep-first dedup. Each bucket holds
  // the global insertion sequence restricted to its shard, so a stable
  // per-shard sort equals the global stable sort restricted to the shard
  // — the serial path's semantics exactly. Degree counts write only to
  // this shard's node range (disjoint across workers).
  std::vector<int64_t> dst_counts(static_cast<size_t>(S * S), 0);
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t s) {
    std::vector<Edge>& b = bucket[s];
    std::stable_sort(b.begin(), b.end(), EdgeBeforeByEndpoints);
    b.erase(std::unique(b.begin(), b.end(), EdgeSameEndpoints), b.end());
    int64_t* dc = dst_counts.data() + static_cast<int64_t>(s) * S;
    for (const Edge& e : b) {
      ++parts.out_offsets[static_cast<size_t>(e.src) + 1];
      ++dc[layout.ShardOf(e.dst)];
    }
  });

  for (int64_t v = 0; v < num_nodes; ++v) {
    parts.out_offsets[static_cast<size_t>(v) + 1] +=
        parts.out_offsets[static_cast<size_t>(v)];
  }
  const int64_t num_arcs = parts.out_offsets[static_cast<size_t>(num_nodes)];

  // Phase 4: out-CSR fill; shard s owns the contiguous slice of its nodes.
  parts.out_neighbors.resize(static_cast<size_t>(num_arcs));
  parts.out_weights.resize(static_cast<size_t>(num_arcs));
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t s) {
    int64_t pos = parts.out_offsets[static_cast<size_t>(
        layout.ShardBegin(static_cast<int64_t>(s)))];
    for (const Edge& e : bucket[s]) {
      parts.out_neighbors[static_cast<size_t>(pos)] = e.dst;
      parts.out_weights[static_cast<size_t>(pos)] = e.weight;
      ++pos;
    }
  });

  // Phase 5: rebucket the deduped arcs by dst shard. Offsets are src-shard
  // major, and src shards are ascending node ranges, so every dst bucket
  // comes out globally sorted by src — which is exactly the order in-lists
  // must have. Source buckets are freed as they drain.
  std::vector<int64_t> dcursor(static_cast<size_t>(S * S));
  std::vector<int64_t> dtotal(static_cast<size_t>(S), 0);
  for (int64_t d = 0; d < S; ++d) {
    int64_t run = 0;
    for (int64_t s = 0; s < S; ++s) {
      dcursor[static_cast<size_t>(s * S + d)] = run;
      run += dst_counts[static_cast<size_t>(s * S + d)];
    }
    dtotal[static_cast<size_t>(d)] = run;
  }
  std::vector<std::vector<Edge>> dbucket(static_cast<size_t>(S));
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t d) {
    dbucket[d].resize(static_cast<size_t>(dtotal[d]));
  });
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t s) {
    int64_t* cur = dcursor.data() + static_cast<int64_t>(s) * S;
    for (const Edge& e : bucket[s]) {
      const int64_t d = layout.ShardOf(e.dst);
      dbucket[static_cast<size_t>(d)][static_cast<size_t>(cur[d]++)] = e;
    }
    bucket[s] = {};
  });

  // Phase 6: in-degrees (dst lives in shard d: disjoint writes), prefix,
  // then a per-shard counting sort by dst. Walking each dst bucket in its
  // stored (src-ascending) order keeps every in-list sorted by source,
  // like the serial path's cursor fill.
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t d) {
    for (const Edge& e : dbucket[d]) {
      ++parts.in_offsets[static_cast<size_t>(e.dst) + 1];
    }
  });
  for (int64_t v = 0; v < num_nodes; ++v) {
    parts.in_offsets[static_cast<size_t>(v) + 1] +=
        parts.in_offsets[static_cast<size_t>(v)];
  }
  parts.in_neighbors.resize(static_cast<size_t>(num_arcs));
  parts.in_weights.resize(static_cast<size_t>(num_arcs));
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t d) {
    const int64_t base = layout.ShardBegin(static_cast<int64_t>(d));
    const int64_t end = layout.ShardEnd(static_cast<int64_t>(d));
    std::vector<int64_t> cur(
        parts.in_offsets.begin() + static_cast<int64_t>(base),
        parts.in_offsets.begin() + static_cast<int64_t>(end));
    for (const Edge& e : dbucket[d]) {
      const int64_t slot = cur[static_cast<size_t>(e.dst - base)]++;
      parts.in_neighbors[static_cast<size_t>(slot)] = e.src;
      parts.in_weights[static_cast<size_t>(slot)] = e.weight;
    }
    dbucket[d] = {};
  });

  return parts;
}

}  // namespace graph_internal

ShardedVisitMap::ShardedVisitMap(const ShardLayout& layout)
    : layout_(layout),
      blocks_(static_cast<size_t>(layout.num_shards > 0 ? layout.num_shards
                                                        : 0)) {}

void ShardedVisitMap::NextEpoch() {
  shards_touched_ = 0;
  if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    // Epoch counter wrapped (once every 2^32 - 1 resets): hard-clear every
    // allocated block so stale stamps can never alias a live epoch.
    for (Block& block : blocks_) {
      if (block.slots != nullptr) {
        std::fill_n(block.slots.get(),
                    static_cast<size_t>(layout_.ShardWidth()), Slot{});
      }
      block.touched_epoch = 0;
    }
    epoch_ = 1;
    return;
  }
  ++epoch_;
}

void ShardedVisitMap::Set(NodeId v, int32_t value) {
  Block& block = blocks_[static_cast<size_t>(layout_.ShardOf(v))];
  if (block.slots == nullptr) {
    // make_unique<T[]> value-initializes: every slot starts at epoch 0,
    // which is never live.
    block.slots =
        std::make_unique<Slot[]>(static_cast<size_t>(layout_.ShardWidth()));
    ++shards_allocated_;
  }
  if (block.touched_epoch != epoch_) {
    block.touched_epoch = epoch_;
    ++shards_touched_;
  }
  Slot& slot =
      block.slots[static_cast<size_t>(v) & (layout_.ShardWidth() - 1)];
  slot.epoch = epoch_;
  slot.value = value;
}

}  // namespace privim
