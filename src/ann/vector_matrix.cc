#include "ann/vector_matrix.h"

#include <algorithm>

#include "ann/distance.h"

namespace saga::ann {

void VectorMatrix::Add(uint64_t label, const float* vec) {
  const double norm = Norm(vec, dim_);
  labels_.push_back(label);
  data_.insert(data_.end(), vec, vec + dim_);
  inv_norms_.push_back(norm > 0.0 ? static_cast<float>(1.0 / norm) : 0.0f);
  max_norm_ = std::max(max_norm_, norm);
}

void VectorMatrix::Clear() {
  labels_ = {};
  data_ = {};
  inv_norms_ = {};
  max_norm_ = 0.0;
}

}  // namespace saga::ann
