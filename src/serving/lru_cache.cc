#include "serving/lru_cache.h"

namespace saga::serving {

bool LruCache::Put(const std::string& key, std::string value) {
  if (key.size() + value.size() > capacity_bytes_) {
    return false;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    size_bytes_ -= it->second.value.size();
    size_bytes_ += value.size();
    it->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    size_bytes_ += key.size() + value.size();
    entries_.emplace(key, Entry{std::move(value), lru_.begin()});
  }
  EvictIfNeeded();
  return true;
}

const std::string* LruCache::Get(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second.value;
}

void LruCache::EvictIfNeeded() {
  // size() > 1 spares the most-recently-touched entry (always
  // lru_.front(), and by the oversized-reject above always within
  // budget on its own).
  while (size_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    size_bytes_ -= victim.size() + it->second.value.size();
    entries_.erase(it);
    lru_.pop_back();
  }
}

}  // namespace saga::serving
