// Precomputed reverse-reachable sketch index for microsecond top-k serving.
//
// Top-k seed selection through CELF re-evaluates the spread oracle from
// scratch on every request — the heaviest operation the serving stack
// exposes. Because the evaluation setting is IC, the expensive part
// (sampling reverse-reachable sets) depends only on the graph, never on the
// request: it can be hoisted out of the request path entirely and done once
// per released graph. This is the same precompute-once/query-cheap split the
// IMM family of influence-maximization solvers uses.
//
// The index stores a pool of sketches as a CSR-like inverted index
// (node -> ids of the sketches containing it). A top-k query is then a lazy
// greedy weighted max-coverage sweep over the precomputed sketches:
// microseconds instead of milliseconds, with no graph traversal at all.
//
// Two build modes, selected automatically:
//
//  * Exhaustive (unit arc weights, the paper's evaluation setting w = 1):
//    reverse reachability is deterministic, so the index holds exactly one
//    sketch per node — sketch t is the set of nodes that reach t within
//    `max_steps` hops. Coverage of the pool by a seed set S is then exactly
//    |reach(S)|, and the sweep — which mirrors CelfGreedy's lazy heap
//    operation-for-operation — selects the *bit-identical* seed set CELF
//    selects, including tie-breaks (tests/im/sketch_index_test.cpp pins
//    this). No RNG is consumed.
//
//  * Sampled (general weights): `num_sketches` random RR sets, IMM-style.
//    Sketch s draws from its own SplitRng(seed, s) stream, so the pool —
//    and therefore the whole index — is bit-identical at every thread
//    count. The sweep maximizes estimated spread n * covered / total.
//
// Build parallelizes over sketches on the global ThreadPool with per-chunk
// scratch; the CSR merge iterates sketches in fixed ascending order, so the
// serialized index is byte-identical at 1, 4 or 8 threads. Each sketch is
// one walk of im/ris's AppendReverseReachable, and RIS ranks the pool it
// samples from its caller's Rng through FromPool and the same TopK sweep.
//
// Persistence uses the checkpoint frame (ckpt::Frame: magic, version,
// payload CRC-32) and common/atomic_file, and embeds the structural fingerprint of
// the graph it was built from: loading an index against a different graph
// is refused, so a stale index can never serve wrong seeds.

#ifndef PRIVIM_IM_SKETCH_SKETCH_INDEX_H_
#define PRIVIM_IM_SKETCH_SKETCH_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "privim/common/status.h"
#include "privim/graph/graph.h"

namespace privim {

/// Current on-disk sketch-index format version; Decode refuses others.
inline constexpr uint32_t kSketchIndexFormatVersion = 1;

struct SketchIndexOptions {
  /// RR sets to sample in the sampled mode. Ignored by the exhaustive mode
  /// (which always holds exactly num_nodes sketches).
  int64_t num_sketches = 4000;
  /// Diffusion steps per sketch; -1 means to quiescence. Serving only
  /// answers requests whose "steps" matches this value from the index —
  /// others fall back to CELF.
  int64_t max_steps = 1;
  /// Base seed for the sampled mode's per-sketch SplitRng streams.
  uint64_t seed = 42;

  Status Validate() const;
};

/// One top-k sweep outcome.
struct SketchTopKResult {
  std::vector<NodeId> seeds;
  /// n * covered / total — exact |reach(S)| in the exhaustive mode, the
  /// usual RIS estimate in the sampled mode.
  double spread = 0.0;
  /// Lazy-gain recomputations the sweep performed (CELF's "evaluations").
  int64_t resweeps = 0;
};

/// Immutable inverted index over a sketch pool. Thread-safe: any number of
/// threads may run TopK concurrently on a shared index.
class SketchIndex {
 public:
  /// Posting lists at least this long have their lazy-gain recount and
  /// cover-marking sharded across the global ThreadPool in fixed sketch
  /// ranges, with integer partial sums folded in chunk order — so the
  /// recomputed gains, the heap replay and the selected seeds stay
  /// bit-identical to the serial sweep at every thread count. Lists below
  /// the grain run serially (the common case for serving-sized pools);
  /// this is what keeps k in the hundreds fast on RR pools whose hub
  /// posting lists dominate the sweep.
  static constexpr int64_t kParallelGrain = int64_t{1} << 16;

  /// Samples the pool over the global ThreadPool and builds the CSR index.
  /// Deterministic: the result is byte-identical at every thread count.
  static Result<std::unique_ptr<SketchIndex>> Build(
      const Graph& graph, const SketchIndexOptions& options);

  /// Indexes a pool the caller has already sampled (RIS): pool[s] holds
  /// the distinct nodes of set s, each in [0, num_nodes). The pool must
  /// hold 1 to INT32_MAX sets. The index records no graph fingerprint and
  /// no mode (exhaustive() is false, seed() is 0); it exists for TopK.
  static std::unique_ptr<SketchIndex> FromPool(
      int64_t num_nodes, int64_t max_steps,
      const std::vector<std::vector<NodeId>>& pool);

  /// Lazy greedy weighted max-coverage over the pool; selects min(k, n)
  /// seeds. In the exhaustive mode the selection (and its tie-breaking) is
  /// bit-identical to CelfGreedy over DeterministicCoverageOracle.
  Result<SketchTopKResult> TopK(int64_t k) const;

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_sketches() const { return num_sketches_; }
  int64_t max_steps() const { return max_steps_; }
  uint64_t seed() const { return seed_; }
  /// True when the pool enumerates every node deterministically (w = 1).
  bool exhaustive() const { return exhaustive_; }
  /// Structural fingerprint (ckpt::FingerprintGraph) of the source graph.
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  /// In-memory footprint of the CSR arrays, reported by im.sketch.bytes.
  int64_t SizeBytes() const;

  // --- persistence (sketch_io.cpp) ---------------------------------------

  /// Framed byte encoding: magic "PRIVIMSX", version, payload size, payload
  /// CRC-32, payload. Byte-identical for equal indexes.
  std::string Encode() const;

  /// Inverse of Encode. Bad magic, version skew, truncation and CRC
  /// mismatch each fail with a distinct IOError message.
  static Result<std::unique_ptr<SketchIndex>> Decode(std::string_view bytes);

  /// Encode + common/atomic_file: a crash mid-save never leaves a torn
  /// index beside the checkpoints it lives with.
  Status Save(const std::string& path) const;

  /// ReadFileToString + Decode. Does NOT check the graph fingerprint —
  /// that happens where the serving graph is known
  /// (InfluenceService::AttachSketchIndex).
  static Result<std::unique_ptr<SketchIndex>> Load(const std::string& path);

 private:
  SketchIndex() = default;

  /// Fixed-order CSR merge of `pool` into offsets_ / sketch_ids_ and
  /// num_sketches_ (see Build).
  void IndexPool(const std::vector<std::vector<NodeId>>& pool);

  /// The sweep's initial lazy-gain heap (every node pushed in ascending id
  /// order, exactly as CelfGreedy does), built once and memcpy'd per query
  /// so a TopK never pays the O(n log n) construction.
  struct HeapEntry {
    double gain;
    NodeId node;
    int64_t round;
    bool operator<(const HeapEntry& other) const { return gain < other.gain; }
  };
  const std::vector<HeapEntry>& InitialHeap() const;

  uint64_t graph_fingerprint_ = 0;
  int64_t num_nodes_ = 0;
  int64_t num_sketches_ = 0;
  int64_t max_steps_ = 1;
  uint64_t seed_ = 0;
  bool exhaustive_ = false;

  /// CSR inverted index: sketch_ids_[offsets_[v] .. offsets_[v+1]) are the
  /// ids of the sketches containing node v, ascending.
  std::vector<int64_t> offsets_;
  std::vector<int32_t> sketch_ids_;

  mutable std::mutex heap_mutex_;
  mutable std::vector<HeapEntry> initial_heap_;  ///< lazily built cache

  friend struct SketchIndexCodec;  ///< sketch_io.cpp field access
};

}  // namespace privim

#endif  // PRIVIM_IM_SKETCH_SKETCH_INDEX_H_
