#include "ann/vector_matrix.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "ann/distance.h"

namespace saga::ann {

void VectorMatrix::Add(uint64_t label, const float* vec) {
  const double norm = Norm(vec, dim_);
  const size_t i = labels_.size();
  const size_t lane = i % kScanBlockRows;
  if (lane == 0) {
    halves_.resize(halves_.size() + kScanBlockRows * dim_, 0);
    inv_norms_.resize(inv_norms_.size() + kScanBlockRows, 0.0f);
  }
  uint16_t* col = halves_.data() + (i - lane) * dim_ + lane;
  double err2 = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const uint16_t h = FloatToHalf(vec[d]);
    col[static_cast<size_t>(d) * kScanBlockRows] = h;
    const float back = HalfToFloat(h);
    const double e = std::isfinite(back)
                         ? static_cast<double>(back) - vec[d]
                         : std::numeric_limits<double>::infinity();
    err2 += e * e;
  }
  const double err = std::sqrt(err2);
  // A norm below ~2.9e-39 has no fp32 inverse; store 0. Such a row is
  // all zero in fp16 (relative error 1), so it scores 0 and the bound,
  // at least 2 for cosine, still covers it.
  const double inv = norm > 0.0 ? 1.0 / norm : 0.0;
  labels_.push_back(label);
  data_.insert(data_.end(), vec, vec + dim_);
  inv_norms_[i] = inv <= FLT_MAX ? static_cast<float>(inv) : 0.0f;
  max_norm_ = std::max(max_norm_, norm);
  max_half_error_ = std::max(max_half_error_, err);
  // A zero row converts exactly; an out-of-range one has err = inf.
  if (err > 0.0) {
    max_half_rel_error_ =
        std::max(max_half_rel_error_, std::isinf(err) ? err : err / norm);
  }
}

void VectorMatrix::Clear() {
  labels_ = {};
  data_ = {};
  inv_norms_ = {};
  halves_ = {};
  max_norm_ = 0.0;
  max_half_error_ = 0.0;
  max_half_rel_error_ = 0.0;
}

void VectorMatrix::ShrinkToFit() {
  labels_.shrink_to_fit();
  data_.shrink_to_fit();
  inv_norms_.shrink_to_fit();
  halves_.shrink_to_fit();
}

}  // namespace saga::ann
