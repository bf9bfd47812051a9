// Buffer recycling for the autograd hot loop.
//
// DP-SGD training (Alg. 2) replays the same compiled forward, objective tape
// and reverse pass over each subgraph for every one of T iterations.
// Without pooling, every buffer and every tape op heap-allocates (a tape op
// its value tensor, its gradient tensor, and a shared_ptr autograd node) —
// multiplied by batch size and iteration count. This header provides the
// two pools that make the steady state allocation-free:
//
//  - TensorArena: size-class-bucketed free lists of std::vector<float>
//    buffers. A Tensor constructed while an arena is active draws its
//    storage from the arena and returns it on destruction. Because buffers
//    remain ordinary self-owning std::vector<float>s, a tensor that
//    outlives the arena (or is destroyed on another thread) simply frees
//    normally — the arena is a recycler, never an owner of live storage.
//
//  - NodePool: a free list of fixed-size memory blocks for the
//    allocate_shared control-block-plus-VariableNode allocation that every
//    autograd op performs. Blocks are plain ::operator new memory; the pool
//    only keeps a free list, so a node that outlives the pool is deleted
//    through the regular allocator path with no dangling risk.
//
// Activation is scoped and thread-local: `ArenaScope scope(&pools);` routes
// all Tensor/node allocations on the current thread through `pools` until
// the scope ends. Pools are single-threaded by contract — one scope, one
// thread at a time (the trainer gives each worker chunk's scratch its own
// pool set, so the same pool is never entered concurrently).
//
// Determinism: pooling only changes where bytes live, never what is
// computed; all kernel summation orders are fixed elsewhere.

#ifndef PRIVIM_NN_ARENA_H_
#define PRIVIM_NN_ARENA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace privim {
namespace nn {

/// Size-class pool of float buffers. Acquire rounds the request up to a
/// power-of-two class and reuses a recycled buffer of that class when one
/// is available; otherwise it allocates one (counted in the stats below).
/// After one warm-up pass over a fixed op sequence, every Acquire hits the
/// free list and the heap is never touched again.
class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Returns a buffer with size() == n and unspecified contents; the caller
  /// must overwrite it. n == 0 returns an empty buffer without touching the
  /// pool.
  std::vector<float> Acquire(size_t n);

  /// Returns a buffer to the pool. Buffers allocated outside the arena are
  /// welcome (they grow the pool as donations); empty buffers are ignored.
  void Recycle(std::vector<float>&& buffer);

  /// Cumulative number of heap allocations the arena performed. Constant in
  /// the steady state — this is the high-water mark the allocation
  /// regression test pins.
  uint64_t buffers_allocated() const { return buffers_allocated_; }
  /// Cumulative bytes of capacity those allocations reserved.
  uint64_t bytes_allocated() const { return bytes_allocated_; }
  uint64_t acquires() const { return acquires_; }
  uint64_t recycles() const { return recycles_; }

 private:
  // Classes are powers of two from 2^6 (64 floats) to 2^25; larger requests
  // bypass pooling (nothing in the training loop is near that size).
  static constexpr size_t kMinBucketLog2 = 6;
  static constexpr size_t kNumBuckets = 20;

  std::array<std::vector<std::vector<float>>, kNumBuckets> free_;
  uint64_t buffers_allocated_ = 0;
  uint64_t bytes_allocated_ = 0;
  uint64_t acquires_ = 0;
  uint64_t recycles_ = 0;
};

/// Free list of equally-sized raw memory blocks for pooled
/// allocate_shared<VariableNode> allocations. The first Allocate fixes the
/// block size; requests of any other size fall through to ::operator new
/// (and their deallocations to ::operator delete), so the pool composes
/// safely with whatever the standard library does internally.
class NodePool {
 public:
  NodePool() = default;
  ~NodePool();
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* Allocate(size_t bytes);
  /// Returns a block to the free list iff `bytes` matches the pool's block
  /// size; otherwise frees it directly.
  void Deallocate(void* block, size_t bytes);

  size_t block_bytes() const { return block_bytes_; }
  uint64_t blocks_allocated() const { return blocks_allocated_; }

 private:
  size_t block_bytes_ = 0;
  std::vector<void*> free_;
  uint64_t blocks_allocated_ = 0;
};

/// A TensorArena and NodePool that travel together: one per worker
/// scratch in the trainer, one per service for the serving forward pass.
struct MemoryPools {
  TensorArena tensors;
  NodePool nodes;
};

/// The pools active on the current thread, or nullptr outside any scope.
TensorArena* ActiveArena();
NodePool* ActiveNodePool();

/// RAII activation of a pool set on the current thread. Nestable; the
/// previous activation is restored on destruction. Passing nullptr inherits
/// the surrounding activation (it never disables pooling), so functions can
/// take an optional MemoryPools* and still compose with an outer scope.
/// Note the buffers of a tape only return to the pool if the tape is
/// destroyed while its pool is active — keep the scope open (or re-enter
/// it) until the tensors built under it are dropped.
class ArenaScope {
 public:
  explicit ArenaScope(MemoryPools* pools);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  TensorArena* previous_arena_;
  NodePool* previous_nodes_;
};

}  // namespace nn
}  // namespace privim

#endif  // PRIVIM_NN_ARENA_H_
