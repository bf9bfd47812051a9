// Fixed-size worker pool used for Monte-Carlo diffusion simulation, repeated
// experiment trials, per-subgraph gradient computation and batch subgraph
// extraction.

#ifndef PRIVIM_COMMON_THREAD_POOL_H_
#define PRIVIM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace privim {

/// A minimal work-stealing-free thread pool. Tasks are `void()` closures;
/// `Submit` returns a future for completion/exception plumbing.
///
/// Nesting: `ParallelFor`/`ParallelForChunks` detect when they are invoked
/// from inside a pool worker (any pool) and run the loop inline instead of
/// re-submitting, so parallel library code can safely be called from already
/// parallel callers (e.g. a bench harness fanning out whole pipeline runs)
/// without deadlocking the pool.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is a worker of any ThreadPool in this
  /// process. Used to run nested parallel regions inline.
  static bool InWorkerThread();

  /// Enqueues a task; the returned future becomes ready when it finishes.
  /// An exception thrown by the task is captured and rethrown by `get()`.
  template <typename Fn>
  std::future<void> Submit(Fn&& fn) {
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<Fn>(fn));
    std::future<void> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// iterations complete. Iterations are distributed in contiguous chunks.
  /// If any iteration throws, the first exception (by chunk order) is
  /// rethrown after every chunk has finished.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Partitions [0, count) into at most `max_chunks` contiguous chunks
  /// (0 = one per worker) and runs fn(chunk, begin, end) for each. The
  /// partition depends only on `count` and `max_chunks` — never on how many
  /// workers happen to be free — so callers can key per-chunk scratch state
  /// (RNG streams, gradient buffers, scratch buffers) off `chunk` and stay
  /// deterministic. The calling thread executes chunk 0 itself.
  void ParallelForChunks(
      size_t count, size_t max_chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide shared pool (created on first use; size defaults to hardware
/// concurrency unless SetGlobalThreadPoolSize was called first).
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` workers (0 = hardware
/// concurrency, 1 = serial execution: every ParallelFor runs inline). Joins
/// the previous pool's workers. Call between parallel regions — typically
/// once at startup from the `--threads` flag (Flags::Threads).
void SetGlobalThreadPoolSize(size_t num_threads);

}  // namespace privim

#endif  // PRIVIM_COMMON_THREAD_POOL_H_
