#ifndef SAGA_ANN_VECTOR_MATRIX_H_
#define SAGA_ANN_VECTOR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace saga::ann {

/// The one vector layout of the float indexes: labels, a contiguous
/// row-major fp32 matrix, and each row's inverse L2 norm cached at
/// Add() time (0 for a zero row), so a cosine scan never recomputes a
/// row norm.
class VectorMatrix {
 public:
  explicit VectorMatrix(int dim) : dim_(dim) {}

  void Add(uint64_t label, const float* vec);
  /// Drops every row and releases the storage.
  void Clear();

  size_t size() const { return labels_.size(); }
  int dim() const { return dim_; }
  uint64_t label(size_t i) const { return labels_[i]; }
  const float* row(size_t i) const {
    return data_.data() + i * static_cast<size_t>(dim_);
  }
  const float* inv_norms() const { return inv_norms_.data(); }
  /// Largest row norm; bounds the fp32 scan's rounding error.
  double max_norm() const { return max_norm_; }

 private:
  int dim_;
  std::vector<uint64_t> labels_;
  std::vector<float> data_;
  std::vector<float> inv_norms_;
  double max_norm_ = 0.0;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_VECTOR_MATRIX_H_
