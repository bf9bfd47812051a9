#include "privim/graph/partitioned.h"

#include <algorithm>
#include <limits>
#include <string>

#include "privim/common/thread_pool.h"

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

bool EdgeSameEndpoints(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst;
}

// Stable sort of one CSR row by target. std::stable_sort allocates a
// temporary buffer on every call, which dominates small builds (a 30-node
// subgraph rebuilt from a checkpoint), so rows of up to 32 arcs take an
// insertion sort instead — stable too, since an arc only moves past
// strictly larger targets.
void StableSortRowByTarget(Edge* first, Edge* last) {
  constexpr std::ptrdiff_t kInsertionSortMaxRow = 32;
  if (last - first < 2) return;
  if (last - first > kInsertionSortMaxRow) {
    std::stable_sort(first, last, [](const Edge& a, const Edge& b) {
      return a.dst < b.dst;
    });
    return;
  }
  for (Edge* next = first + 1; next != last; ++next) {
    const Edge arc = *next;
    Edge* hole = next;
    for (; hole != first && arc.dst < hole[-1].dst; --hole) *hole = hole[-1];
    *hole = arc;
  }
}

}  // namespace

Result<CsrParts> BuildCsrParallel(int64_t num_nodes,
                                  std::span<const std::span<const Edge>> tasks,
                                  ArcSet arcs, bool validate) {
  const bool expand_reverse = arcs == ArcSet::kExpandReverse;
  const bool symmetric = arcs != ArcSet::kDirected;
  CsrParts parts;
  parts.out_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);

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

  // Phase 3: per-shard (src, dst) order + keep-first dedup. Each bucket
  // holds the global insertion sequence restricted to its shard, so a
  // stable counting sort by source over the shard's node range followed by
  // a stable sort of each row by target is the global stable sort
  // restricted to the shard. Degree counts write only to this shard's node
  // range (disjoint across workers); the (src shard, dst shard) counts feed
  // phase 5, which a symmetric build skips.
  std::vector<int64_t> dst_counts(symmetric ? 0 : static_cast<size_t>(S * S),
                                  0);
  pool.ParallelFor(static_cast<size_t>(S), [&](size_t s) {
    const int64_t base = layout.ShardBegin(static_cast<int64_t>(s));
    const int64_t rows = layout.ShardEnd(static_cast<int64_t>(s)) - base;
    std::vector<Edge>& b = bucket[s];
    // row_end[r + 1] counts row r's arcs; after the prefix sum row_end[r]
    // is row r's start, and after the scatter its end.
    std::vector<int64_t> row_end(static_cast<size_t>(rows) + 1, 0);
    for (const Edge& e : b) ++row_end[static_cast<size_t>(e.src - base) + 1];
    for (int64_t r = 0; r < rows; ++r) {
      row_end[static_cast<size_t>(r) + 1] += row_end[static_cast<size_t>(r)];
    }
    std::vector<Edge> sorted(b.size());
    for (const Edge& e : b) {
      sorted[static_cast<size_t>(row_end[static_cast<size_t>(e.src - base)]++)] =
          e;
    }
    int64_t row_begin = 0;
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t end = row_end[static_cast<size_t>(r)];
      StableSortRowByTarget(sorted.data() + row_begin, sorted.data() + end);
      row_begin = end;
    }
    b = std::move(sorted);
    b.erase(std::unique(b.begin(), b.end(), EdgeSameEndpoints), b.end());
    for (const Edge& e : b) {
      ++parts.out_offsets[static_cast<size_t>(e.src) + 1];
      if (!symmetric) {
        ++dst_counts[static_cast<size_t>(static_cast<int64_t>(s) * S +
                                         layout.ShardOf(e.dst))];
      }
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

  // A symmetric build's in-CSR is its out-CSR (see BuildCsrParallel's
  // contract): it skips the rebucket and the counting sort, and holds no
  // copy.
  if (symmetric) return parts;

  // Phase 5: rebucket the deduped arcs by dst shard. Offsets are src-shard
  // major, and src shards are ascending node ranges, so every dst bucket
  // comes out globally sorted by src — which is exactly the order in-lists
  // must have. Source buckets are freed as they drain. A single shard is
  // its own dst bucket.
  std::vector<std::vector<Edge>> dbucket(static_cast<size_t>(S));
  if (S == 1) {
    dbucket[0] = std::move(bucket[0]);
  } else {
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
  }

  // Phase 6: in-degrees (dst lives in shard d: disjoint writes), prefix,
  // then a per-shard counting sort by dst. Walking each dst bucket in its
  // stored (src-ascending) order keeps every in-list sorted by source.
  parts.in_offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
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
