#include "privim/im/sketch/sketch_index.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

#include "privim/ckpt/io.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/common/timer.h"
#include "privim/diffusion/ic_model.h"
#include "privim/im/ris.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"

namespace privim {
namespace {

obs::Gauge* BuildSecondsGauge() {
  static obs::Gauge* g =
      obs::GlobalMetrics().GetGauge("im.sketch.build_seconds");
  return g;
}
obs::Gauge* SketchCountGauge() {
  static obs::Gauge* g = obs::GlobalMetrics().GetGauge("im.sketch.count");
  return g;
}
obs::Gauge* SketchBytesGauge() {
  static obs::Gauge* g = obs::GlobalMetrics().GetGauge("im.sketch.bytes");
  return g;
}

}  // namespace

Status SketchIndexOptions::Validate() const {
  if (num_sketches < 1) {
    return Status::InvalidArgument("num_sketches must be >= 1");
  }
  if (num_sketches > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("num_sketches must fit in 32 bits");
  }
  if (max_steps < -1) {
    return Status::InvalidArgument(
        "max_steps must be >= -1 (-1 = to quiescence)");
  }
  return Status::OK();
}

Result<std::unique_ptr<SketchIndex>> SketchIndex::Build(
    const Graph& graph, const SketchIndexOptions& options) {
  PRIVIM_RETURN_NOT_OK(options.Validate());
  const int64_t n = graph.num_nodes();
  if (n < 1) {
    return Status::InvalidArgument(
        "sketch index needs a graph with at least 1 node");
  }

  obs::TraceSpan span("im.sketch.build");
  WallTimer timer;

  std::unique_ptr<SketchIndex> index(new SketchIndex());
  index->graph_fingerprint_ = ckpt::FingerprintGraph(graph);
  index->num_nodes_ = n;
  index->max_steps_ = options.max_steps;
  index->exhaustive_ = HasUnitWeights(graph);
  // The exhaustive pool enumerates every node once; randomness (and the
  // seed) only matter for the sampled mode. Pinning seed_ to 0 here keeps
  // the encoding canonical: equal graphs give byte-equal indexes no matter
  // which seed the builder was configured with.
  index->seed_ = index->exhaustive_ ? 0 : options.seed;
  const int64_t num_sketches = index->exhaustive_ ? n : options.num_sketches;

  // Sample the pool. Slot s is written by exactly one chunk, and its
  // content depends only on (graph, options, s) — per-sketch SplitRng
  // streams, never a shared one — so the pool is identical at any thread
  // count. Chunk-local scratch keeps the per-sketch cost at O(|sketch|)
  // instead of O(n).
  std::vector<std::vector<NodeId>> sketches(
      static_cast<size_t>(num_sketches));
  GlobalThreadPool().ParallelForChunks(
      static_cast<size_t>(num_sketches), 0,
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        ReverseReachScratch scratch(n);
        for (size_t s = begin; s < end; ++s) {
          if (index->exhaustive_) {
            AppendReverseReachable(graph, static_cast<NodeId>(s),
                                   options.max_steps, /*rng=*/nullptr,
                                   &scratch, &sketches[s]);
          } else {
            Rng rng = SplitRng(options.seed, static_cast<uint64_t>(s));
            const NodeId target = static_cast<NodeId>(
                rng.NextBounded(static_cast<uint64_t>(n)));
            AppendReverseReachable(graph, target, options.max_steps, &rng,
                                   &scratch, &sketches[s]);
          }
        }
      });
  index->IndexPool(sketches);

  BuildSecondsGauge()->Set(timer.ElapsedSeconds());
  SketchCountGauge()->Set(static_cast<double>(num_sketches));
  SketchBytesGauge()->Set(static_cast<double>(index->SizeBytes()));
  return index;
}

std::unique_ptr<SketchIndex> SketchIndex::FromPool(
    int64_t num_nodes, int64_t max_steps,
    const std::vector<std::vector<NodeId>>& pool) {
  std::unique_ptr<SketchIndex> index(new SketchIndex());
  index->num_nodes_ = num_nodes;
  index->max_steps_ = max_steps;
  index->IndexPool(pool);
  return index;
}

void SketchIndex::IndexPool(const std::vector<std::vector<NodeId>>& pool) {
  // Counting pass, prefix sum, then fill by ascending sketch id so every
  // node's posting list is sorted. The merge order is a function of nothing
  // but the pool, so the serialized index cannot depend on the thread count
  // that sampled it.
  num_sketches_ = static_cast<int64_t>(pool.size());
  offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  int64_t total_entries = 0;
  for (const std::vector<NodeId>& sketch : pool) {
    total_entries += static_cast<int64_t>(sketch.size());
    for (const NodeId v : sketch) ++offsets_[static_cast<size_t>(v) + 1];
  }
  for (size_t v = 0; v < static_cast<size_t>(num_nodes_); ++v) {
    offsets_[v + 1] += offsets_[v];
  }
  sketch_ids_.resize(static_cast<size_t>(total_entries));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t s = 0; s < pool.size(); ++s) {
    for (const NodeId v : pool[s]) {
      sketch_ids_[static_cast<size_t>(cursor[v]++)] = static_cast<int32_t>(s);
    }
  }
}

int64_t SketchIndex::SizeBytes() const {
  return static_cast<int64_t>(offsets_.size() * sizeof(int64_t) +
                              sketch_ids_.size() * sizeof(int32_t));
}

const std::vector<SketchIndex::HeapEntry>& SketchIndex::InitialHeap() const {
  std::lock_guard<std::mutex> lock(heap_mutex_);
  if (initial_heap_.empty() && num_nodes_ > 0) {
    // Exactly CelfGreedy's initial pass: push every node in ascending id
    // order with its singleton gain. std::priority_queue::push is specified
    // as push_back + std::push_heap over the default vector container, so
    // replaying the same operations here leaves the identical array — equal
    // gains and all — that CELF's heap would hold.
    initial_heap_.reserve(static_cast<size_t>(num_nodes_));
    for (NodeId v = 0; v < num_nodes_; ++v) {
      const double gain = static_cast<double>(
          offsets_[static_cast<size_t>(v) + 1] -
          offsets_[static_cast<size_t>(v)]);
      initial_heap_.push_back(HeapEntry{gain, v, 0});
      std::push_heap(initial_heap_.begin(), initial_heap_.end());
    }
  }
  return initial_heap_;
}

Result<SketchTopKResult> SketchIndex::TopK(int64_t k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (num_nodes_ == 0) return Status::InvalidArgument("empty sketch index");
  k = std::min(k, num_nodes_);

  // Per-query state: a copy of the cached initial heap (memcpy of POD
  // entries) and a covered bitmap. Everything below mirrors CelfGreedy's
  // lazy loop operation-for-operation; in the exhaustive mode the gains are
  // the same integers CELF's oracle returns, so pops, pushes, tie-breaks —
  // and therefore the selected seeds — are bit-identical to CELF's.
  std::vector<HeapEntry> heap = InitialHeap();
  std::vector<uint8_t> covered(static_cast<size_t>(num_sketches_), 0);
  int64_t covered_count = 0;

  // Posting lists past the grain are processed in kSweepChunks fixed sketch
  // ranges on the ThreadPool. The partial counts are integers summed in
  // chunk order, and the sketch ids within one list are distinct (so the
  // parallel cover-marking writes disjoint slots): both loops produce the
  // exact numbers the serial sweep produces, at any thread count.
  constexpr size_t kSweepChunks = 32;
  const auto range_gain = [&](int64_t begin, int64_t end) {
    int64_t gain = 0;
    for (int64_t i = begin; i < end; ++i) {
      gain += !covered[static_cast<size_t>(sketch_ids_[static_cast<size_t>(i)])];
    }
    return gain;
  };
  const auto fresh_gain = [&](NodeId v) {
    const int64_t begin = offsets_[static_cast<size_t>(v)];
    const int64_t end = offsets_[static_cast<size_t>(v) + 1];
    if (end - begin < kParallelGrain) return range_gain(begin, end);
    std::array<int64_t, kSweepChunks> partial{};
    GlobalThreadPool().ParallelForChunks(
        static_cast<size_t>(end - begin), kSweepChunks,
        [&](size_t chunk, size_t cb, size_t ce) {
          partial[chunk] = range_gain(begin + static_cast<int64_t>(cb),
                                      begin + static_cast<int64_t>(ce));
        });
    int64_t gain = 0;
    for (const int64_t p : partial) gain += p;
    return gain;
  };
  const auto mark_range = [&](int64_t begin, int64_t end) {
    int64_t newly = 0;
    for (int64_t i = begin; i < end; ++i) {
      uint8_t& slot =
          covered[static_cast<size_t>(sketch_ids_[static_cast<size_t>(i)])];
      if (!slot) {
        slot = 1;
        ++newly;
      }
    }
    return newly;
  };
  const auto mark_covered = [&](NodeId v) {
    const int64_t begin = offsets_[static_cast<size_t>(v)];
    const int64_t end = offsets_[static_cast<size_t>(v) + 1];
    if (end - begin < kParallelGrain) return mark_range(begin, end);
    std::array<int64_t, kSweepChunks> partial{};
    GlobalThreadPool().ParallelForChunks(
        static_cast<size_t>(end - begin), kSweepChunks,
        [&](size_t chunk, size_t cb, size_t ce) {
          partial[chunk] = mark_range(begin + static_cast<int64_t>(cb),
                                      begin + static_cast<int64_t>(ce));
        });
    int64_t newly = 0;
    for (const int64_t p : partial) newly += p;
    return newly;
  };

  SketchTopKResult result;
  result.seeds.reserve(static_cast<size_t>(k));
  while (static_cast<int64_t>(result.seeds.size()) < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    HeapEntry top = heap.back();
    heap.pop_back();
    const int64_t round = static_cast<int64_t>(result.seeds.size());
    if (top.round == round) {
      // Fresh for this round: submodularity says it is still the maximum.
      result.seeds.push_back(top.node);
      covered_count += mark_covered(top.node);
    } else {
      top.gain = static_cast<double>(fresh_gain(top.node));
      top.round = round;
      ++result.resweeps;
      heap.push_back(top);
      std::push_heap(heap.begin(), heap.end());
    }
  }
  result.spread = static_cast<double>(num_nodes_) *
                  static_cast<double>(covered_count) /
                  static_cast<double>(num_sketches_);
  return result;
}

}  // namespace privim
