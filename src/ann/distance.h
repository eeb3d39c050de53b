#ifndef SAGA_ANN_DISTANCE_H_
#define SAGA_ANN_DISTANCE_H_

#include <cmath>
#include <cstddef>

namespace saga::ann {

enum class Metric {
  kDot,     // maximize inner product
  kCosine,  // maximize cosine similarity
  kL2,      // minimize squared euclidean distance
};

inline double Dot(const float* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

inline double L2Sq(const float* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

inline double Norm(const float* a, size_t dim) {
  return std::sqrt(Dot(a, a, dim));
}

inline double CosineSim(const float* a, const float* b, size_t dim) {
  // Dot(a, b), Dot(a, a) and Dot(b, b) in one pass: each sum adds the
  // same terms in the same order as its own loop would, so the result
  // is bit-identical, but the three dependency chains overlap.
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double x = a[i];
    const double y = b[i];
    ab += x * y;
    aa += x * x;
    bb += y * y;
  }
  const double na = std::sqrt(aa);
  const double nb = std::sqrt(bb);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return ab / (na * nb);
}

/// Unified "higher is better" similarity under a metric (L2 is negated).
inline double Similarity(Metric metric, const float* a, const float* b,
                         size_t dim) {
  switch (metric) {
    case Metric::kDot:
      return Dot(a, b, dim);
    case Metric::kCosine:
      return CosineSim(a, b, dim);
    case Metric::kL2:
      return -L2Sq(a, b, dim);
  }
  return 0.0;
}

}  // namespace saga::ann

#endif  // SAGA_ANN_DISTANCE_H_
