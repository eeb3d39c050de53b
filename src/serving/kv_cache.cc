#include "serving/kv_cache.h"

#include <algorithm>
#include <functional>

#include "common/metrics.h"
#include "common/serialization.h"

namespace saga::serving {

Result<std::unique_ptr<EmbeddingKvCache>> EmbeddingKvCache::Open(
    const std::string& dir, size_t memory_budget_bytes) {
  storage::KvStore::Options opts;
  opts.use_wal = false;  // cache contents are rebuildable
  // Flush/compaction run on the store's maintenance thread so a
  // rebuild never blocks the Get path behind storage maintenance.
  opts.background_maintenance = true;
  SAGA_ASSIGN_OR_RETURN(auto kv, storage::KvStore::Open(dir, opts));
  return std::unique_ptr<EmbeddingKvCache>(
      new EmbeddingKvCache(std::move(kv), memory_budget_bytes));
}

EmbeddingKvCache::EmbeddingKvCache(std::unique_ptr<storage::KvStore> kv,
                                   size_t memory_budget_bytes)
    : kv_(std::move(kv)) {
  const size_t per_shard =
      std::max<size_t>(memory_budget_bytes / kShards, size_t{1});
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(per_shard);
  }
}

EmbeddingKvCache::Shard& EmbeddingKvCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % kShards];
}

std::string EmbeddingKvCache::KeyFor(kg::EntityId id) {
  // "emb:%016llx" without the printf machinery: every Get builds one.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key = "emb:0000000000000000";
  uint64_t v = id.value();
  for (size_t i = key.size(); i > 4; --i, v >>= 4) key[i - 1] = kHex[v & 0xF];
  return key;
}

std::string EmbeddingKvCache::Encode(const std::vector<float>& vec) {
  std::string out;
  BinaryWriter w(&out);
  w.PutFloatVector(vec);
  return out;
}

Result<std::vector<float>> EmbeddingKvCache::Decode(
    const std::string& bytes) {
  BinaryReader r(bytes);
  std::vector<float> vec;
  SAGA_RETURN_IF_ERROR(r.GetFloatVector(&vec));
  return vec;
}

Status EmbeddingKvCache::PutAll(const embedding::EmbeddingStore& store) {
  for (kg::EntityId id : store.Ids()) {
    SAGA_RETURN_IF_ERROR(Put(id, *store.Get(id)));
  }
  // No cache-level lock across the rebuild: concurrent Gets keep
  // serving from the LRU tier and from KvStore read snapshots while
  // the flush and compaction run.
  SAGA_RETURN_IF_ERROR(kv_->Flush());
  return kv_->CompactAll();
}

Status EmbeddingKvCache::Put(kg::EntityId id, const std::vector<float>& vec) {
  const std::string key = KeyFor(id);
  std::string encoded = Encode(vec);
  SAGA_RETURN_IF_ERROR(kv_->Put(key, encoded));
  // Refresh the in-memory tier if the key is resident: leaving the old
  // bytes in the LRU would serve a stale embedding forever to any
  // entity read before this update. Absent keys are not write-
  // allocated — the LRU stays read-driven (bulk precompute would
  // otherwise wipe the hot working set).
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.lru.Contains(key)) {
    (void)shard.lru.Put(key, std::move(encoded));
  }
  return Status::OK();
}

Result<std::vector<float>> EmbeddingKvCache::Get(kg::EntityId id) {
  obs::ScopedLatency timer(SAGA_LATENCY("serving.kv_cache.get_ns"));
  const std::string key = KeyFor(id);
  Shard& shard = ShardFor(key);
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (const std::string* cached = shard.lru.Get(key)) {
      // Decode the resident bytes in place: the pointer is only valid
      // while this shard's lock is held.
      Result<std::vector<float>> vec = Decode(*cached);
      lock.unlock();
      memory_hits_.fetch_add(1, std::memory_order_relaxed);
      SAGA_COUNTER("serving.kv_cache.memory_hits").Add();
      UpdateHitRateGauges();
      return vec;
    }
  }
  // Disk probe outside any shard lock: a slow or compacting store must
  // not serialize unrelated reads behind this one.
  auto from_disk = kv_->Get(key);
  if (!from_disk.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    SAGA_COUNTER("serving.kv_cache.misses").Add();
    UpdateHitRateGauges();
    return from_disk.status();
  }
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  SAGA_COUNTER("serving.kv_cache.disk_hits").Add();
  // Decode before the fill so the bytes can move into the LRU.
  std::string bytes = std::move(from_disk).value();
  Result<std::vector<float>> vec = Decode(bytes);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    (void)shard.lru.Put(key, std::move(bytes));
  }
  UpdateHitRateGauges();
  return vec;
}

EmbeddingKvCache::Stats EmbeddingKvCache::stats() const {
  Stats s;
  s.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

void EmbeddingKvCache::UpdateHitRateGauges() const {
  // An LRU hit is exactly a memory hit and an LRU miss is exactly a
  // disk hit or full miss, so both gauges derive from the same atomic
  // tallies — no shard locks needed.
  const uint64_t memory = memory_hits_.load(std::memory_order_relaxed);
  const uint64_t disk = disk_hits_.load(std::memory_order_relaxed);
  const uint64_t miss = misses_.load(std::memory_order_relaxed);
  const uint64_t lookups = memory + disk + miss;
  if (lookups > 0) {
    SAGA_GAUGE("serving.kv_cache.hit_rate")
        .Set(static_cast<double>(memory + disk) /
             static_cast<double>(lookups));
    SAGA_GAUGE("serving.lru_cache.hit_rate")
        .Set(static_cast<double>(memory) / static_cast<double>(lookups));
  }
}

}  // namespace saga::serving
