// Sharded LRU response cache.
//
// Keys are 128 bits: (model/graph fingerprint, request digest). The shard
// is picked from the key hash, so concurrent lookups on different shards
// never contend on a lock; within a shard a mutex guards the classic
// list + hash-map LRU. Values are the serialized response payloads. A
// cached answer is whatever release the answer itself is (service.h):
// caching adds no privacy cost, and removes none either.
//
// The cache is an observational layer: a hit returns exactly the bytes a
// recomputation would produce (responses are deterministic per request),
// so enabling or sizing the cache can never change a response, only its
// latency.

#ifndef PRIVIM_SERVE_CACHE_H_
#define PRIVIM_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace privim {
namespace serve {

/// 128-bit cache key: which model+graph, which request.
struct CacheKey {
  uint64_t fingerprint = 0;  ///< model + graph identity
  uint64_t digest = 0;       ///< request content digest

  bool operator==(const CacheKey& other) const {
    return fingerprint == other.fingerprint && digest == other.digest;
  }
};

/// Thread-safe sharded LRU mapping CacheKey -> serialized payload.
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget across shards (0 disables the
  /// cache: every Lookup misses, every Insert is dropped). `num_shards`
  /// must be >= 1; capacity is split evenly with a minimum of one entry
  /// per shard.
  ShardedLruCache(int64_t capacity, int64_t num_shards);

  /// Copies the cached payload into `*payload` and promotes the entry to
  /// most-recently-used. False on miss.
  bool Lookup(const CacheKey& key, std::string* payload);

  /// Inserts (or refreshes) an entry, evicting least-recently-used entries
  /// of the same shard as needed.
  void Insert(const CacheKey& key, const std::string& payload);

  int64_t capacity() const { return capacity_; }
  int64_t num_shards() const { return static_cast<int64_t>(shards_.size()); }

  /// Entries currently resident (sums shard sizes; racy but monotonic
  /// within a quiescent cache — intended for stats and tests).
  int64_t Size() const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

 private:
  struct Entry {
    CacheKey key;
    std::string payload;
  };

  struct Shard {
    std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  static uint64_t Mix(const CacheKey& key);
  Shard& ShardFor(uint64_t mixed) {
    return *shards_[mixed % shards_.size()];
  }

  int64_t capacity_;
  int64_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_CACHE_H_
