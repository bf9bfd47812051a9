// In-process influence-serving engine.
//
// An InfluenceService answers concurrent influence queries — per-node
// influence scores, top-k seed selection (model scores, CELF, RIS or the
// precomputed sketch index) and Monte-Carlo spread estimates — against an
// immutable ServingAssets snapshot (assets.h: graph + released model +
// compiled engine + sketch index + fingerprints).
//
// Release boundary: the DP guarantee covers the released model, and what
// is computed from it plus a graph that shares no node with the training
// graph (the paper's SplitNodes protocol); on such a graph model answers
// are post-processing and may be cached and replayed freely. Model
// answers on the training graph itself, and every CELF, RIS, sketch and
// spread answer (these read the served graph with no model at all), are
// the data owner's own use, not a DP release: removing one node can change
// them (docs/privacy_accounting.md section 8).
//
// Request flow:
//
//   Submit ──capture current assets snapshot──cache hit──▶ ready future
//     │ miss
//     ▼
//   bounded admission queue ──▶ scheduler thread coalesces up to
//   `max_batch` requests ──▶ batch executes as a ParallelFor over the
//   global ThreadPool ──▶ promises fulfilled, cache filled
//
// Hot swap: SwapAssets atomically repoints the served snapshot (the wire
// surface is {"op":"admin","action":"swap",...} routed through an
// installed AssetsFactory). Every request executes against the snapshot
// captured at admission, so in-flight work is never torn; the response
// cache keys on the snapshot fingerprint, so a swap can never surface a
// stale payload — entries for the retired snapshot stop matching and age
// out of the LRU. Swaps are counted in serve.swap.* metrics.
//
// Determinism: a response is a pure function of (assets, request).
// Stochastic ops derive their randomness from the request's own seed via
// the library's splittable RNG, never from a shared stream, so batch
// composition, thread count and cache state cannot change a single
// response bit (tests/serve/service_test.cpp pins 1/4/8 threads).
//
// Observability: the engine records serve.* metrics — queue depth gauge,
// batch-size and latency histograms, admission/rejection counters, cache
// hit/miss/eviction counters and swap counters — through the obs
// registry, exported with --metrics-out like every other front end.

#ifndef PRIVIM_SERVE_SERVICE_H_
#define PRIVIM_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "privim/common/status.h"
#include "privim/common/timer.h"
#include "privim/gnn/models.h"
#include "privim/graph/graph.h"
#include "privim/graph/subgraph.h"
#include "privim/im/celf.h"
#include "privim/nn/tensor.h"
#include "privim/serve/assets.h"
#include "privim/serve/cache.h"
#include "privim/serve/request.h"

namespace privim {
namespace serve {

/// Engine configuration. Everything is validated up front by Validate();
/// the service never exits or aborts on bad input.
struct ServeOptions {
  /// Maximum requests waiting for execution. Submit blocks when full;
  /// TrySubmit rejects. Must admit at least one batch.
  int64_t queue_capacity = 256;
  /// Maximum requests coalesced into one scheduling batch. The batch
  /// executes as a ParallelFor over the global thread pool, so this is
  /// the engine's unit of cross-request parallelism.
  int64_t max_batch = 16;
  /// Total response-cache entries across shards; 0 disables caching.
  int64_t cache_capacity = 1024;
  /// Cache shard count (clamped to cache_capacity when larger).
  int64_t cache_shards = 8;

  Status Validate() const;
};

/// Point-in-time engine statistics (all values monotone except
/// queue_depth).
struct ServiceStats {
  uint64_t admitted = 0;    ///< requests accepted into the queue
  uint64_t rejected = 0;    ///< TrySubmit calls refused on a full queue
  uint64_t completed = 0;   ///< responses produced (errors included)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t batches = 0;         ///< scheduler dispatches
  uint64_t max_batch_size = 0;  ///< largest coalesced batch observed
  int64_t queue_depth = 0;      ///< requests currently waiting
  uint64_t fused_forwards = 0;  ///< model forward passes run
  uint64_t sketch_hits = 0;       ///< topk answered from the sketch index
  uint64_t sketch_fallbacks = 0;  ///< method=sketch served by CELF instead
  bool sketch_active = false;     ///< the current snapshot has a sketch index
  uint64_t swaps = 0;            ///< successful asset swaps
  uint64_t swap_errors = 0;      ///< refused/failed swap attempts
  uint64_t fingerprint = 0;      ///< the currently served snapshot's identity
};

/// A serving engine answering influence queries against the current asset
/// snapshot until Stop().
///
/// Thread-safe: any number of producer threads may Submit concurrently,
/// and SwapAssets may race with all of them. The service owns one
/// scheduler thread; request execution fans out over the global
/// ThreadPool.
class InfluenceService {
 public:
  /// Validates options and builds the service around an existing snapshot.
  static Result<std::unique_ptr<InfluenceService>> Create(
      std::shared_ptr<const ServingAssets> assets,
      const ServeOptions& options);

  /// Convenience: builds the snapshot (no sketch index) and the service in
  /// one step. `model` may be null: score ("influence") and model-based
  /// top-k requests then fail with FailedPrecondition while celf / ris /
  /// spread requests — which need only the graph — keep working.
  static Result<std::unique_ptr<InfluenceService>> Create(
      Graph graph, std::shared_ptr<const GnnModel> model,
      const ServeOptions& options);

  ~InfluenceService();

  InfluenceService(const InfluenceService&) = delete;
  InfluenceService& operator=(const InfluenceService&) = delete;

  /// Atomically repoints the served snapshot. In-flight requests finish on
  /// the snapshot they were admitted under; requests admitted after the
  /// swap execute (and cache) against the new one. Never drops a request.
  /// A null snapshot is refused with InvalidArgument.
  Status SwapAssets(std::shared_ptr<const ServingAssets> assets);

  /// The currently served snapshot (never null).
  std::shared_ptr<const ServingAssets> assets() const;

  /// Builds a replacement snapshot for an {"op":"admin","action":"swap"}
  /// request — the front end installs one that loads the named files. The
  /// returned snapshot is installed by the service via SwapAssets and its
  /// fingerprints are echoed in the admin response.
  using AssetsFactory =
      std::function<Result<std::shared_ptr<const ServingAssets>>(
          const ServeRequest&)>;

  /// Installs the swap factory. Must be called before Start() (execution
  /// threads read it lock-free afterwards). Without one, admin swap
  /// requests fail with FailedPrecondition.
  Status SetAssetsFactory(AssetsFactory factory);

  /// Starts the scheduler thread. Requests submitted before Start() queue
  /// up (subject to capacity) and are dispatched once it runs. Starting a
  /// started service is an error.
  Status Start();

  /// Drains the queue, fulfills every pending future and joins the
  /// scheduler. Idempotent. Called by the destructor.
  void Stop();

  /// Blocking admission: waits for queue space, returns a future that
  /// resolves to the response. A cache hit resolves immediately without
  /// touching the queue. Fails with FailedPrecondition after Stop().
  Result<std::future<ServeResponse>> Submit(const ServeRequest& request);

  /// Non-blocking admission: FailedPrecondition when the queue is full
  /// (counted in ServiceStats::rejected) or the service is stopped.
  Result<std::future<ServeResponse>> TrySubmit(const ServeRequest& request);

  /// Completion callback for SubmitAsync. Invoked exactly once per
  /// admitted request — inline on a cache hit, from an execution thread
  /// otherwise, and during Stop() for requests still queued at shutdown —
  /// so an admitted request can never lose its response.
  using ResponseCallback = std::function<void(ServeResponse)>;

  /// Non-blocking callback admission for event-loop front ends (the TCP
  /// listener) that cannot park a thread on a future. Returns
  /// Unavailable("overloaded") when the admission queue is full — the
  /// load-shedding signal, counted in ServiceStats::rejected — and
  /// FailedPrecondition after Stop(). `done` is not invoked unless the
  /// request was admitted (OK return or inline cache hit).
  Status SubmitAsync(const ServeRequest& request, ResponseCallback done);

  /// Synchronous single-request path: consults the cache, computes inline
  /// on the calling thread, fills the cache. This is the "no batching"
  /// baseline the throughput bench compares against; responses are
  /// bit-identical to the batched path.
  ServeResponse Execute(const ServeRequest& request);

  ServiceStats GetStats() const;

  /// Convenience accessors over the *current* snapshot (assets() is the
  /// race-free way to hold one across several calls).
  uint64_t fingerprint() const { return assets()->fingerprint(); }
  const Graph& graph() const { return assets()->graph(); }
  bool has_model() const { return assets()->has_model(); }
  /// True when method=sketch requests are served from the snapshot's index.
  bool sketch_active() const { return assets()->sketch() != nullptr; }

 private:
  InfluenceService(std::shared_ptr<const ServingAssets> assets,
                   const ServeOptions& options);

  struct Pending {
    ServeRequest request;
    /// The snapshot captured at admission; the request executes (and its
    /// response caches) against exactly this one, whatever swaps happen
    /// in between.
    std::shared_ptr<const ServingAssets> assets;
    ResponseCallback done;
    double admit_seconds = 0.0;  ///< monotonic admission stamp
  };

  Result<std::future<ServeResponse>> SubmitInternal(
      const ServeRequest& request, bool blocking);
  /// Shared admission path. Full-queue is reported as Unavailable;
  /// future-based wrappers translate it for their callers.
  Status SubmitCore(const ServeRequest& request, ResponseCallback done,
                    bool blocking);
  void SchedulerLoop();
  void RunBatch(std::vector<Pending>* batch);

  /// Computes the payload for one request against one snapshot (never
  /// consults the cache).
  ServeResponse Compute(const ServingAssets& assets,
                        const ServeRequest& request);
  /// The admin verbs (currently: swap). Runs on an execution thread like
  /// any other request, but mutates the service, so it is never cached.
  ServeResponse ExecuteAdmin(const ServeRequest& request);
  /// The CELF top-k computation shared by method=celf and the counted
  /// method=sketch fallback: exact coverage oracle on unit-weight graphs,
  /// Monte-Carlo IC otherwise.
  Result<SeedSelectionResult> CelfTopK(const ServingAssets& assets,
                                       const ServeRequest& request);
  /// Model scores over one induced subgraph, from the snapshot's engine.
  Result<Tensor> SubgraphScores(const ServingAssets& assets,
                                const Subgraph& sub);

  /// The published snapshot. Readers copy the shared_ptr (lock-free);
  /// SwapAssets stores a new one.
  std::atomic<std::shared_ptr<const ServingAssets>> assets_;
  ServeOptions options_;
  AssetsFactory assets_factory_;
  ShardedLruCache cache_;
  WallTimer epoch_;  ///< admission/latency stamps

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Pending> queue_;
  bool started_ = false;
  bool stopping_ = false;
  std::thread scheduler_;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> max_batch_size_{0};
  /// Fused forwards accumulated by snapshots that have been retired by a
  /// swap; the live total adds the current snapshot's own count.
  std::atomic<uint64_t> fused_forwards_base_{0};
  std::atomic<uint64_t> sketch_hits_{0};
  std::atomic<uint64_t> sketch_fallbacks_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> swap_errors_{0};
};

}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_SERVICE_H_
