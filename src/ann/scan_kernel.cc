#include "ann/scan_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SAGA_ANN_X86 1
#endif

namespace saga::ann {

uint16_t FloatToHalf(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const auto sign = static_cast<uint16_t>((x >> 16) & 0x8000u);
  x &= 0x7fffffffu;
  if (x > 0x7f800000u) {
    // NaN: quiet it and keep the top payload bits.
    return sign | static_cast<uint16_t>(0x7e00u | ((x >> 13) & 0x3ffu));
  }
  if (x >= 0x47800000u) return sign | 0x7c00u;  // >= 65536, or inf
  if (x < 0x38800000u) {
    // Below 2^-14: an fp16 subnormal k * 2^-24, or zero. Anything
    // below 2^-25 rounds to zero (2^-25 itself ties to even zero).
    const uint32_t exp = x >> 23;
    if (exp < 102) return sign;
    const uint32_t mant = (x & 0x7fffffu) | 0x800000u;
    const uint32_t shift = 126 - exp;  // 14..24
    uint32_t h = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1);
    const uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return sign | static_cast<uint16_t>(h);
  }
  // Normal: rebias the exponent and round off 13 mantissa bits; the
  // carry may roll into the exponent, up to inf (65520 and above).
  uint32_t h = (x >> 13) - (112u << 10);
  const uint32_t rem = x & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return sign | static_cast<uint16_t>(h);
}

float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  const uint32_t mant = h & 0x3ffu;
  if (exp == 0) {
    // Zero or subnormal: mant * 2^-24 is exact in fp32.
    const float v = static_cast<float>(mant) * 0x1p-24f;
    return sign != 0 ? -v : v;
  }
  const uint32_t x = exp == 0x1f ? sign | 0x7f800000u | (mant << 13)
                                 : sign | ((exp + 112) << 23) | (mant << 13);
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

namespace {

/// HalfToFloat of every half, built on first use (256 KiB): the
/// scalar scan converts by lookup.
const float* HalfTable() {
  static const float* table = [] {
    auto* t = new float[1 << 16];
    for (uint32_t h = 0; h < (1u << 16); ++h) {
      t[h] = HalfToFloat(static_cast<uint16_t>(h));
    }
    return t;
  }();
  return table;
}

/// Raw sums (q.r, or |q-r|^2 for L2) of the 16 rows of one block.
template <bool kL2>
void SumBlock(const float* query, const uint16_t* block, size_t dim,
              float* sums) {
  const float* half = HalfTable();
  for (size_t d = 0; d < dim; ++d) {
    const float q = query[d];
    const uint16_t* col = block + d * kScanBlockRows;
    for (size_t lane = 0; lane < kScanBlockRows; ++lane) {
      const float h = half[col[lane]];
      if constexpr (kL2) {
        sums[lane] += (q - h) * (q - h);
      } else {
        sums[lane] += q * h;
      }
    }
  }
}

}  // namespace

size_t ScanBlocksScalar(Metric metric, const float* query,
                        float query_inv_norm, const uint16_t* blocks,
                        const float* inv_norms, size_t n, size_t dim,
                        float floor, Survivor* out) {
  size_t kept = 0;
  for (size_t first = 0; first < n; first += kScanBlockRows) {
    const uint16_t* block = blocks + first * dim;
    float sums[kScanBlockRows] = {};
    if (metric == Metric::kL2) {
      SumBlock<true>(query, block, dim, sums);
    } else {
      SumBlock<false>(query, block, dim, sums);
    }
    const size_t rows = std::min(kScanBlockRows, n - first);
    for (size_t lane = 0; lane < rows; ++lane) {
      float score = sums[lane];
      if (metric == Metric::kCosine) {
        score = score * query_inv_norm * inv_norms[first + lane];
      }
      if (metric == Metric::kL2) score = -score;
      if (score > floor) {
        out[kept++] = Survivor{static_cast<uint32_t>(first + lane), score};
      }
    }
  }
  return kept;
}

#ifdef SAGA_ANN_X86

namespace {

/// Appends the lanes of `mask` (lane i = row first_row + i) with their
/// scores. Survivors are rare once the pool is full, so this is off
/// the hot path.
inline size_t Emit(unsigned mask, const float* scores, size_t first_row,
                   Survivor* out) {
  size_t kept = 0;
  for (; mask != 0; mask &= mask - 1) {
    const int lane = __builtin_ctz(mask);
    out[kept++] =
        Survivor{static_cast<uint32_t>(first_row + lane), scores[lane]};
  }
  return kept;
}

/// Mask of the `lanes` (<= 16) rows from `first_row` that are below
/// `n`: the zero padding of a partial last block never survives.
inline unsigned ValidLanes(size_t n, size_t first_row, size_t lanes) {
  const size_t rows = std::min(lanes, n - std::min(n, first_row));
  return (1u << rows) - 1;
}

/// How far ahead of the current block the scan prefetches. A scan
/// that runs after other work (a PPR walk, another index) finds most of
/// its matrix evicted from L2, and the hardware prefetcher alone does
/// not keep up with the kernel.
constexpr size_t kPrefetchBlocks = 8;

/// Address of the block kPrefetchBlocks after `block`, kept an integer:
/// near the end of the matrix it lies past the array, which a prefetch
/// may touch but a pointer may not.
inline uintptr_t PrefetchBase(const uint16_t* block, size_t stride) {
  return reinterpret_cast<uintptr_t>(block) +
         kPrefetchBlocks * stride * sizeof(uint16_t);
}

inline void Prefetch(uintptr_t address) {
  _mm_prefetch(reinterpret_cast<const char*>(address), _MM_HINT_T0);
}

// ---------- AVX2 + FMA + F16C: a block is two 8-row halves ----------

#define SAGA_AVX2 __attribute__((target("avx2,fma,f16c")))

/// acc += term(q, h) for the 8 rows at `p`: q*h, or (q-h)^2 for L2.
template <Metric kMetric>
SAGA_AVX2 inline __m256 Step8(__m256 acc, __m256 q, const uint16_t* p) {
  const __m256 h =
      _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  if constexpr (kMetric == Metric::kL2) {
    const __m256 t = _mm256_sub_ps(q, h);
    return _mm256_fmadd_ps(t, t, acc);
  } else {
    return _mm256_fmadd_ps(q, h, acc);
  }
}

/// Scores the 8 rows from `first_row` from their sums and appends
/// those above `floor`.
template <Metric kMetric>
SAGA_AVX2 inline size_t Select8(__m256 sum, __m256 query_inv_norm,
                                __m256 floor, const float* inv_norms,
                                size_t first_row, size_t n, Survivor* out) {
  __m256 score = sum;
  if constexpr (kMetric == Metric::kCosine) {
    score = _mm256_mul_ps(_mm256_mul_ps(sum, query_inv_norm),
                          _mm256_loadu_ps(inv_norms + first_row));
  } else if constexpr (kMetric == Metric::kL2) {
    score = _mm256_xor_ps(sum, _mm256_set1_ps(-0.0f));
  }
  const unsigned mask =
      static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(score, floor, _CMP_GT_OQ))) &
      ValidLanes(n, first_row, 8);
  if (mask == 0) return 0;
  alignas(32) float scores[8];
  _mm256_store_ps(scores, score);
  return Emit(mask, scores, first_row, out);
}

template <Metric kMetric>
SAGA_AVX2 size_t Scan8(const float* query, float query_inv_norm,
                       const uint16_t* blocks, const float* inv_norms,
                       size_t n, size_t dim, float floor, Survivor* out) {
  constexpr size_t kRows = kScanBlockRows;
  const size_t stride = dim * kRows;
  const size_t num_blocks = (n + kRows - 1) / kRows;
  const __m256 qn = _mm256_set1_ps(query_inv_norm);
  const __m256 fl = _mm256_set1_ps(floor);
  size_t kept = 0;
  size_t b = 0;
  // Two blocks (four independent accumulators) in flight.
  for (; b + 2 <= num_blocks; b += 2) {
    const uint16_t* p = blocks + b * stride;
    const uintptr_t ahead = PrefetchBase(p, stride);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      // The two blocks span dim * 64 bytes: one line per step.
      Prefetch(ahead + d * 64);
      const __m256 q = _mm256_broadcast_ss(query + d);
      const uint16_t* pd = p + d * kRows;
      a0 = Step8<kMetric>(a0, q, pd);
      a1 = Step8<kMetric>(a1, q, pd + 8);
      a2 = Step8<kMetric>(a2, q, pd + stride);
      a3 = Step8<kMetric>(a3, q, pd + stride + 8);
    }
    const size_t r = b * kRows;
    kept += Select8<kMetric>(a0, qn, fl, inv_norms, r, n, out + kept);
    kept += Select8<kMetric>(a1, qn, fl, inv_norms, r + 8, n, out + kept);
    kept += Select8<kMetric>(a2, qn, fl, inv_norms, r + 16, n, out + kept);
    kept += Select8<kMetric>(a3, qn, fl, inv_norms, r + 24, n, out + kept);
  }
  if (b < num_blocks) {
    const uint16_t* p = blocks + b * stride;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      const __m256 q = _mm256_broadcast_ss(query + d);
      a0 = Step8<kMetric>(a0, q, p + d * kRows);
      a1 = Step8<kMetric>(a1, q, p + d * kRows + 8);
    }
    const size_t r = b * kRows;
    kept += Select8<kMetric>(a0, qn, fl, inv_norms, r, n, out + kept);
    kept += Select8<kMetric>(a1, qn, fl, inv_norms, r + 8, n, out + kept);
  }
  return kept;
}

#undef SAGA_AVX2

// ---------- AVX-512F: one block per zmm ----------

#define SAGA_AVX512 __attribute__((target("avx512f")))

template <Metric kMetric>
SAGA_AVX512 inline __m512 Step16(__m512 acc, __m512 q, const uint16_t* p) {
  // The all-lanes maskz form: g++ 12's plain _mm512_cvtph_ps trips
  // -Wmaybe-uninitialized inside its own header.
  const __m512 h = _mm512_maskz_cvtph_ps(
      0xffff, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  if constexpr (kMetric == Metric::kL2) {
    const __m512 t = _mm512_sub_ps(q, h);
    return _mm512_fmadd_ps(t, t, acc);
  } else {
    return _mm512_fmadd_ps(q, h, acc);
  }
}

template <Metric kMetric>
SAGA_AVX512 inline size_t Select16(__m512 sum, __m512 query_inv_norm,
                                   __m512 floor, const float* inv_norms,
                                   size_t first_row, size_t n, Survivor* out) {
  __m512 score = sum;
  if constexpr (kMetric == Metric::kCosine) {
    score = _mm512_mul_ps(_mm512_mul_ps(sum, query_inv_norm),
                          _mm512_loadu_ps(inv_norms + first_row));
  } else if constexpr (kMetric == Metric::kL2) {
    score = _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(sum), _mm512_set1_epi32(INT32_MIN)));
  }
  const unsigned mask = _mm512_mask_cmp_ps_mask(
      static_cast<__mmask16>(ValidLanes(n, first_row, 16)), score, floor,
      _CMP_GT_OQ);
  if (mask == 0) return 0;
  alignas(64) float scores[16];
  _mm512_store_ps(scores, score);
  return Emit(mask, scores, first_row, out);
}

template <Metric kMetric>
SAGA_AVX512 size_t Scan16(const float* query, float query_inv_norm,
                          const uint16_t* blocks, const float* inv_norms,
                          size_t n, size_t dim, float floor, Survivor* out) {
  constexpr size_t kRows = kScanBlockRows;
  const size_t stride = dim * kRows;
  const size_t num_blocks = (n + kRows - 1) / kRows;
  const __m512 qn = _mm512_set1_ps(query_inv_norm);
  const __m512 fl = _mm512_set1_ps(floor);
  size_t kept = 0;
  size_t b = 0;
  // Four blocks (four independent accumulators) in flight.
  for (; b + 4 <= num_blocks; b += 4) {
    const uint16_t* p = blocks + b * stride;
    const uintptr_t ahead = PrefetchBase(p, stride);
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      // The four blocks span dim * 128 bytes: two lines per step.
      Prefetch(ahead + d * 128);
      Prefetch(ahead + d * 128 + 64);
      const __m512 q = _mm512_set1_ps(query[d]);
      const uint16_t* pd = p + d * kRows;
      a0 = Step16<kMetric>(a0, q, pd);
      a1 = Step16<kMetric>(a1, q, pd + stride);
      a2 = Step16<kMetric>(a2, q, pd + 2 * stride);
      a3 = Step16<kMetric>(a3, q, pd + 3 * stride);
    }
    const size_t r = b * kRows;
    kept += Select16<kMetric>(a0, qn, fl, inv_norms, r, n, out + kept);
    kept += Select16<kMetric>(a1, qn, fl, inv_norms, r + 16, n, out + kept);
    kept += Select16<kMetric>(a2, qn, fl, inv_norms, r + 32, n, out + kept);
    kept += Select16<kMetric>(a3, qn, fl, inv_norms, r + 48, n, out + kept);
  }
  for (; b < num_blocks; ++b) {
    const uint16_t* p = blocks + b * stride;
    __m512 a = _mm512_setzero_ps();
    for (size_t d = 0; d < dim; ++d) {
      a = Step16<kMetric>(a, _mm512_set1_ps(query[d]), p + d * kRows);
    }
    kept += Select16<kMetric>(a, qn, fl, inv_norms, b * kRows, n, out + kept);
  }
  return kept;
}

#undef SAGA_AVX512

}  // namespace

size_t ScanBlocksAvx2(Metric metric, const float* query, float query_inv_norm,
                      const uint16_t* blocks, const float* inv_norms, size_t n,
                      size_t dim, float floor, Survivor* out) {
  switch (metric) {
    case Metric::kDot:
      return Scan8<Metric::kDot>(query, query_inv_norm, blocks, inv_norms, n,
                                 dim, floor, out);
    case Metric::kCosine:
      return Scan8<Metric::kCosine>(query, query_inv_norm, blocks, inv_norms,
                                    n, dim, floor, out);
    case Metric::kL2:
      return Scan8<Metric::kL2>(query, query_inv_norm, blocks, inv_norms, n,
                                dim, floor, out);
  }
  return 0;
}

size_t ScanBlocksAvx512(Metric metric, const float* query,
                        float query_inv_norm, const uint16_t* blocks,
                        const float* inv_norms, size_t n, size_t dim,
                        float floor, Survivor* out) {
  switch (metric) {
    case Metric::kDot:
      return Scan16<Metric::kDot>(query, query_inv_norm, blocks, inv_norms, n,
                                  dim, floor, out);
    case Metric::kCosine:
      return Scan16<Metric::kCosine>(query, query_inv_norm, blocks, inv_norms,
                                     n, dim, floor, out);
    case Metric::kL2:
      return Scan16<Metric::kL2>(query, query_inv_norm, blocks, inv_norms, n,
                                 dim, floor, out);
  }
  return 0;
}

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
}

bool CpuHasAvx512() { return __builtin_cpu_supports("avx512f"); }

#else  // !SAGA_ANN_X86

size_t ScanBlocksAvx2(Metric metric, const float* query, float query_inv_norm,
                      const uint16_t* blocks, const float* inv_norms, size_t n,
                      size_t dim, float floor, Survivor* out) {
  return ScanBlocksScalar(metric, query, query_inv_norm, blocks, inv_norms, n,
                          dim, floor, out);
}

size_t ScanBlocksAvx512(Metric metric, const float* query,
                        float query_inv_norm, const uint16_t* blocks,
                        const float* inv_norms, size_t n, size_t dim,
                        float floor, Survivor* out) {
  return ScanBlocksScalar(metric, query, query_inv_norm, blocks, inv_norms, n,
                          dim, floor, out);
}

bool CpuHasAvx2Fma() { return false; }
bool CpuHasAvx512() { return false; }

#endif  // SAGA_ANN_X86

ScanBlocksFn ScanBlocks() {
  static const ScanBlocksFn fn = CpuHasAvx512()    ? &ScanBlocksAvx512
                                 : CpuHasAvx2Fma() ? &ScanBlocksAvx2
                                                   : &ScanBlocksScalar;
  return fn;
}

const char* ScanBlocksName() {
  const ScanBlocksFn fn = ScanBlocks();
  if (fn == &ScanBlocksAvx512) return "avx512f";
  if (fn == &ScanBlocksAvx2) return "avx2+fma+f16c";
  return "scalar";
}

}  // namespace saga::ann
