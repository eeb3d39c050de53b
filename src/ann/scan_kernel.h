#ifndef SAGA_ANN_SCAN_KERNEL_H_
#define SAGA_ANN_SCAN_KERNEL_H_

#include <cstddef>

#include "ann/distance.h"

namespace saga::ann {

/// Scores `n` contiguous rows (row-major, `dim` floats each) against
/// one query in fp32 and writes `scores[0..n)`, "higher is better" as
/// in `Similarity`:
///   kDot:    q.r
///   kCosine: (q.r) * query_inv_norm * row_inv_norms[i]
///   kL2:     -|q - r|^2
/// `row_inv_norms` is read only for kCosine. Rows and query need no
/// alignment.
using ScoreBlockFn = void (*)(Metric metric, const float* query,
                              float query_inv_norm, const float* rows,
                              const float* row_inv_norms, size_t n,
                              size_t dim, float* scores);

/// Plain scalar reference; runs on every CPU.
void ScoreBlockScalar(Metric metric, const float* query, float query_inv_norm,
                      const float* rows, const float* row_inv_norms, size_t n,
                      size_t dim, float* scores);

/// AVX2+FMA variant, 4 rows per step. Call only when CpuHasAvx2Fma().
void ScoreBlockAvx2(Metric metric, const float* query, float query_inv_norm,
                    const float* rows, const float* row_inv_norms, size_t n,
                    size_t dim, float* scores);

bool CpuHasAvx2Fma();

/// The variant for this CPU, chosen once on first use.
ScoreBlockFn ScoreBlock();
/// "avx2+fma" or "scalar".
const char* ScoreBlockName();

}  // namespace saga::ann

#endif  // SAGA_ANN_SCAN_KERNEL_H_
