#ifndef SAGA_SERVING_LRU_CACHE_H_
#define SAGA_SERVING_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace saga::serving {

/// Byte-budgeted LRU cache of string blobs. The in-memory tier in front
/// of the KV-store embedding cache. Not thread-safe; callers shard and
/// lock (see EmbeddingKvCache).
class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Inserts or updates. Returns false — without touching the cache —
  /// when key+value alone exceed the byte budget: admitting an entry
  /// that can never fit would evict the whole working set and then be
  /// evicted itself, churning the list for nothing.
  bool Put(const std::string& key, std::string value);
  /// The resident value (marked most recent), or nullptr on a miss. No
  /// copy: the pointer stays valid until the next call on this cache,
  /// so a sharded caller reads it under the same lock.
  const std::string* Get(const std::string& key);
  bool Contains(const std::string& key) const {
    return entries_.count(key) > 0;
  }

  size_t size_bytes() const { return size_bytes_; }
  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::string value;
    std::list<std::string>::iterator lru_it;
  };

  /// Evicts from the cold end until back under budget, but never the
  /// most-recently-touched entry — evicting what Put just wrote would
  /// turn an over-budget update into a silent drop.
  void EvictIfNeeded();

  size_t capacity_bytes_;
  size_t size_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_LRU_CACHE_H_
