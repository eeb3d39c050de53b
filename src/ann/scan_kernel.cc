#include "ann/scan_kernel.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SAGA_ANN_X86 1
#endif

namespace saga::ann {

void ScoreBlockScalar(Metric metric, const float* query, float query_inv_norm,
                      const float* rows, const float* row_inv_norms, size_t n,
                      size_t dim, float* scores) {
  for (size_t i = 0; i < n; ++i) {
    const float* r = rows + i * dim;
    float s = 0.0f;
    if (metric == Metric::kL2) {
      for (size_t j = 0; j < dim; ++j) {
        const float d = query[j] - r[j];
        s += d * d;
      }
      scores[i] = -s;
      continue;
    }
    for (size_t j = 0; j < dim; ++j) s += query[j] * r[j];
    scores[i] = metric == Metric::kCosine
                    ? s * query_inv_norm * row_inv_norms[i]
                    : s;
  }
}

#ifdef SAGA_ANN_X86

namespace {

#define SAGA_AVX2 __attribute__((target("avx2,fma")))

/// Lanes [0, rem) all-ones, the rest zero; rem in [0, 8).
SAGA_AVX2 inline __m256i TailMask(size_t rem) {
  static const int32_t kBits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                    0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + 8 - rem));
}

/// acc += term(q, r) over one 8-lane chunk: q*r, or (q-r)^2 for L2.
template <bool kL2>
SAGA_AVX2 inline __m256 Accumulate(__m256 acc, __m256 q, __m256 r) {
  if constexpr (kL2) {
    const __m256 d = _mm256_sub_ps(q, r);
    return _mm256_fmadd_ps(d, d, acc);
  } else {
    return _mm256_fmadd_ps(q, r, acc);
  }
}

SAGA_AVX2 inline float HorizontalSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

/// Raw sums (q.r, or |q-r|^2 for L2) of rows [0, n) into `sums`.
template <bool kL2>
SAGA_AVX2 void SumRows(const float* query, const float* rows, size_t n,
                       size_t dim, float* sums) {
  const size_t full = dim & ~size_t{7};
  const __m256i mask = TailMask(dim - full);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = rows + i * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    size_t j = 0;
    for (; j < full; j += 8) {
      const __m256 q = _mm256_loadu_ps(query + j);
      a0 = Accumulate<kL2>(a0, q, _mm256_loadu_ps(r0 + j));
      a1 = Accumulate<kL2>(a1, q, _mm256_loadu_ps(r1 + j));
      a2 = Accumulate<kL2>(a2, q, _mm256_loadu_ps(r2 + j));
      a3 = Accumulate<kL2>(a3, q, _mm256_loadu_ps(r3 + j));
    }
    if (j < dim) {
      // Masked lanes read as zero on both sides, so they add nothing.
      const __m256 q = _mm256_maskload_ps(query + j, mask);
      a0 = Accumulate<kL2>(a0, q, _mm256_maskload_ps(r0 + j, mask));
      a1 = Accumulate<kL2>(a1, q, _mm256_maskload_ps(r1 + j, mask));
      a2 = Accumulate<kL2>(a2, q, _mm256_maskload_ps(r2 + j, mask));
      a3 = Accumulate<kL2>(a3, q, _mm256_maskload_ps(r3 + j, mask));
    }
    // Reduce the four accumulators into one lane each.
    const __m256 h = _mm256_hadd_ps(_mm256_hadd_ps(a0, a1),
                                    _mm256_hadd_ps(a2, a3));
    _mm_storeu_ps(sums + i, _mm_add_ps(_mm256_castps256_ps128(h),
                                       _mm256_extractf128_ps(h, 1)));
  }
  for (; i < n; ++i) {
    const float* r = rows + i * dim;
    __m256 a = _mm256_setzero_ps();
    size_t j = 0;
    for (; j < full; j += 8) {
      a = Accumulate<kL2>(a, _mm256_loadu_ps(query + j),
                          _mm256_loadu_ps(r + j));
    }
    if (j < dim) {
      a = Accumulate<kL2>(a, _mm256_maskload_ps(query + j, mask),
                          _mm256_maskload_ps(r + j, mask));
    }
    sums[i] = HorizontalSum(a);
  }
}

}  // namespace

SAGA_AVX2 void ScoreBlockAvx2(Metric metric, const float* query,
                              float query_inv_norm, const float* rows,
                              const float* row_inv_norms, size_t n,
                              size_t dim, float* scores) {
  switch (metric) {
    case Metric::kDot:
      SumRows<false>(query, rows, n, dim, scores);
      return;
    case Metric::kCosine: {
      SumRows<false>(query, rows, n, dim, scores);
      const __m256 qn = _mm256_set1_ps(query_inv_norm);
      size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        const __m256 s = _mm256_mul_ps(_mm256_loadu_ps(scores + i), qn);
        _mm256_storeu_ps(scores + i,
                         _mm256_mul_ps(s, _mm256_loadu_ps(row_inv_norms + i)));
      }
      for (; i < n; ++i) {
        scores[i] = scores[i] * query_inv_norm * row_inv_norms[i];
      }
      return;
    }
    case Metric::kL2:
      SumRows<true>(query, rows, n, dim, scores);
      for (size_t i = 0; i < n; ++i) scores[i] = -scores[i];
      return;
  }
}

#undef SAGA_AVX2

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else  // !SAGA_ANN_X86

void ScoreBlockAvx2(Metric metric, const float* query, float query_inv_norm,
                    const float* rows, const float* row_inv_norms, size_t n,
                    size_t dim, float* scores) {
  ScoreBlockScalar(metric, query, query_inv_norm, rows, row_inv_norms, n, dim,
                   scores);
}

bool CpuHasAvx2Fma() { return false; }

#endif  // SAGA_ANN_X86

ScoreBlockFn ScoreBlock() {
  static const ScoreBlockFn fn =
      CpuHasAvx2Fma() ? &ScoreBlockAvx2 : &ScoreBlockScalar;
  return fn;
}

const char* ScoreBlockName() {
  return ScoreBlock() == &ScoreBlockScalar ? "scalar" : "avx2+fma";
}

}  // namespace saga::ann
