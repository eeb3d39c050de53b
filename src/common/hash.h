#ifndef SAGA_COMMON_HASH_H_
#define SAGA_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace saga {

/// 64-bit FNV-1a over arbitrary bytes. Stable across platforms and runs;
/// used for blocking keys, feature hashing, and bloom filters, so it must
/// never change.
inline uint64_t Hash64(std::string_view s,
                       uint64_t seed = 0xCBF29CE484222325ULL) {
  uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Finalizer-style avalanche mix (from MurmurHash3), useful to derive
/// independent hash functions from one value.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

}  // namespace saga

#endif  // SAGA_COMMON_HASH_H_
