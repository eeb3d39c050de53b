#ifndef SAGA_ANN_SCAN_KERNEL_H_
#define SAGA_ANN_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "ann/distance.h"

namespace saga::ann {

/// IEEE binary16 <-> binary32 in software. FloatToHalf rounds to
/// nearest, ties to even, as `_cvtss_sh` does: finite values at or past
/// 65520 become inf, tiny ones become fp16 subnormals or zero, and a
/// NaN stays a (quiet) NaN. HalfToFloat is exact.
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

/// Rows per fp16 scan block (see VectorMatrix::blocks()).
inline constexpr size_t kScanBlockRows = 16;

/// A row the fused scan kept: its index from the first scanned block
/// and its fp32 score.
struct Survivor {
  uint32_t row;
  float score;
};

/// Scores rows [0, n) of fp16 scan blocks against one query and writes
/// to `out`, in row order, every row whose fp32 score is > `floor`;
/// returns how many. A block is `dim` x 16 halves, dim-major (element
/// d of row lane l at d * 16 + l), and a partial last block is
/// zero-padded; `inv_norms` is indexed like the rows. Scores are
/// "higher is better" as in `Similarity`:
///   kDot:    q.r
///   kCosine: (q.r) * query_inv_norm * inv_norms[i]
///   kL2:     -|q - r|^2
/// Every variant sums each row over d = 0..dim-1 in fp32; the SIMD
/// variants fuse each multiply-add, so they agree with each other bit
/// for bit and with the scalar reference to fp32 rounding. `inv_norms`
/// is read only for kCosine. `out` must hold n entries.
using ScanBlocksFn = size_t (*)(Metric metric, const float* query,
                                float query_inv_norm, const uint16_t* blocks,
                                const float* inv_norms, size_t n, size_t dim,
                                float floor, Survivor* out);

/// Portable scalar reference (separate multiply and add); runs on every
/// CPU.
size_t ScanBlocksScalar(Metric metric, const float* query,
                        float query_inv_norm, const uint16_t* blocks,
                        const float* inv_norms, size_t n, size_t dim,
                        float floor, Survivor* out);

/// AVX2+FMA+F16C, each block as two 8-lane halves. Call only when
/// CpuHasAvx2Fma().
size_t ScanBlocksAvx2(Metric metric, const float* query, float query_inv_norm,
                      const uint16_t* blocks, const float* inv_norms, size_t n,
                      size_t dim, float floor, Survivor* out);

/// AVX-512F, one block per zmm. Call only when CpuHasAvx512().
size_t ScanBlocksAvx512(Metric metric, const float* query,
                        float query_inv_norm, const uint16_t* blocks,
                        const float* inv_norms, size_t n, size_t dim,
                        float floor, Survivor* out);

/// AVX2, FMA and F16C.
bool CpuHasAvx2Fma();
bool CpuHasAvx512();

/// The variant for this CPU, chosen once on first use.
ScanBlocksFn ScanBlocks();
/// "avx512f", "avx2+fma+f16c" or "scalar".
const char* ScanBlocksName();

}  // namespace saga::ann

#endif  // SAGA_ANN_SCAN_KERNEL_H_
