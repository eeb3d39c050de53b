#ifndef SAGA_ANN_VECTOR_MATRIX_H_
#define SAGA_ANN_VECTOR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ann/scan_kernel.h"

namespace saga::ann {

/// The one vector layout of the float indexes: labels, a contiguous
/// row-major fp32 matrix (what the double rescore, k-means and `row()`
/// read), each row's inverse L2 norm cached at Add() time (0 for a zero
/// row), and one fp16 copy of the rows laid out for the scan kernel.
///
/// The fp16 copy holds rows in blocks of kScanBlockRows, each block
/// dim-major (`dim` x 16 halves; element d of row lane l at d * 16 + l)
/// with the last block zero-padded; `inv_norms()` is padded to match.
/// At 32 dims that is 64 B per row, half the fp32 bytes. Add() measures
/// the fp16 error of every row exactly, in double, so a scan over the
/// fp16 copy can bound how far its scores may be from the fp32 rows'.
class VectorMatrix {
 public:
  explicit VectorMatrix(int dim) : dim_(dim) {}

  void Add(uint64_t label, const float* vec);
  /// Drops every row and releases the storage.
  void Clear();
  /// Trims every array to its size; call once the last row is added.
  void ShrinkToFit();

  size_t size() const { return labels_.size(); }
  int dim() const { return dim_; }
  uint64_t label(size_t i) const { return labels_[i]; }
  const float* row(size_t i) const {
    return data_.data() + i * static_cast<size_t>(dim_);
  }
  /// fp16 scan block `b` (rows [16b, 16b + 16)).
  const uint16_t* block(size_t b) const {
    return halves_.data() + b * kScanBlockRows * static_cast<size_t>(dim_);
  }
  /// One per row, zero-padded to a whole block.
  const float* inv_norms() const { return inv_norms_.data(); }
  /// Largest row norm; bounds the fp32 scan's rounding error.
  double max_norm() const { return max_norm_; }
  /// Largest |fp16(r) - r| over rows; +inf when a component is beyond
  /// fp16 range.
  double max_half_error() const { return max_half_error_; }
  /// Largest |fp16(r) - r| / |r| over nonzero rows (at most 1 while
  /// every component is in fp16 range; +inf otherwise).
  double max_half_rel_error() const { return max_half_rel_error_; }

 private:
  int dim_;
  std::vector<uint64_t> labels_;
  std::vector<float> data_;
  std::vector<float> inv_norms_;
  std::vector<uint16_t> halves_;
  double max_norm_ = 0.0;
  double max_half_error_ = 0.0;
  double max_half_rel_error_ = 0.0;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_VECTOR_MATRIX_H_
