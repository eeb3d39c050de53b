#ifndef SAGA_ANN_BRUTE_FORCE_INDEX_H_
#define SAGA_ANN_BRUTE_FORCE_INDEX_H_

#include <vector>

#include "ann/index.h"
#include "ann/vector_matrix.h"

namespace saga::ann {

/// Exact k-NN by full scan. The recall=1.0 baseline the IVF index is
/// benchmarked against. Selects with the fp16 scan kernel and rescores
/// the hits in double (see TopKScan), so similarities are exactly those
/// of a plain `Similarity` scan.
class BruteForceIndex : public VectorIndex {
 public:
  BruteForceIndex(int dim, Metric metric) : metric_(metric), rows_(dim) {}

  void Add(uint64_t label, const std::vector<float>& vec) override;
  void Build() override { rows_.ShrinkToFit(); }
  std::vector<Neighbor> Search(const std::vector<float>& query,
                               size_t k) const override;
  size_t size() const override { return rows_.size(); }
  Metric metric() const override { return metric_; }

 private:
  Metric metric_;
  VectorMatrix rows_;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_BRUTE_FORCE_INDEX_H_
