#include "privim/nn/arena.h"

#include <utility>

namespace privim {
namespace nn {
namespace {

thread_local TensorArena* active_arena = nullptr;
thread_local NodePool* active_node_pool = nullptr;

// Index of the smallest power-of-two class holding `n` floats, or
// kNumBuckets when the request is too large to pool.
size_t BucketFor(size_t n, size_t min_log2, size_t num_buckets) {
  size_t bucket = 0;
  size_t capacity = size_t{1} << min_log2;
  while (capacity < n && bucket < num_buckets) {
    capacity <<= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

std::vector<float> TensorArena::Acquire(size_t n) {
  if (n == 0) return {};
  ++acquires_;
  const size_t bucket = BucketFor(n, kMinBucketLog2, kNumBuckets);
  if (bucket >= kNumBuckets) {
    // Beyond the poolable range: plain allocation, still counted so the
    // high-water test catches an op that should have been bucketed.
    ++buffers_allocated_;
    bytes_allocated_ += n * sizeof(float);
    return std::vector<float>(n);
  }
  std::vector<std::vector<float>>& list = free_[bucket];
  if (!list.empty()) {
    std::vector<float> buffer = std::move(list.back());
    list.pop_back();
    buffer.resize(n);
    return buffer;
  }
  const size_t capacity = size_t{1} << (kMinBucketLog2 + bucket);
  std::vector<float> buffer;
  buffer.reserve(capacity);
  buffer.resize(n);
  ++buffers_allocated_;
  bytes_allocated_ += capacity * sizeof(float);
  return buffer;
}

uint64_t TensorArena::pooled_bytes() const {
  uint64_t bytes = 0;
  for (const std::vector<std::vector<float>>& list : free_) {
    for (const std::vector<float>& buffer : list) {
      bytes += buffer.capacity() * sizeof(float);
    }
  }
  return bytes;
}

void TensorArena::Recycle(std::vector<float>&& buffer) {
  const size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  ++recycles_;
  // File under the largest class the buffer can fully serve, so an Acquire
  // from that class is guaranteed to fit without reallocating.
  size_t bucket = BucketFor(capacity, kMinBucketLog2, kNumBuckets);
  if (bucket >= kNumBuckets) return;  // oversized: let it free normally
  if ((size_t{1} << (kMinBucketLog2 + bucket)) > capacity) {
    if (bucket == 0) return;  // smaller than the smallest class
    --bucket;
  }
  free_[bucket].push_back(std::move(buffer));
}

NodePool::~NodePool() {
  for (void* block : free_) ::operator delete(block);
}

void* NodePool::Allocate(size_t bytes) {
  if (block_bytes_ == 0) block_bytes_ = bytes;
  if (bytes == block_bytes_ && !free_.empty()) {
    void* block = free_.back();
    free_.pop_back();
    return block;
  }
  if (bytes == block_bytes_) ++blocks_allocated_;
  return ::operator new(bytes);
}

void NodePool::Deallocate(void* block, size_t bytes) {
  if (bytes == block_bytes_) {
    free_.push_back(block);
    return;
  }
  ::operator delete(block);
}

TensorArena* ActiveArena() { return active_arena; }
NodePool* ActiveNodePool() { return active_node_pool; }

ArenaScope::ArenaScope(MemoryPools* pools)
    : previous_arena_(active_arena), previous_nodes_(active_node_pool) {
  if (pools != nullptr) {
    active_arena = &pools->tensors;
    active_node_pool = &pools->nodes;
  }
  // nullptr inherits the surrounding activation (a scope that can't disable
  // pooling lets APIs take an optional MemoryPools* and still compose with
  // a caller-held scope).
}

ArenaScope::~ArenaScope() {
  active_arena = previous_arena_;
  active_node_pool = previous_nodes_;
}

}  // namespace nn
}  // namespace privim
