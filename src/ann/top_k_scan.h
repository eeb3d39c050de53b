#ifndef SAGA_ANN_TOP_K_SCAN_H_
#define SAGA_ANN_TOP_K_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ann/index.h"
#include "ann/scan_kernel.h"
#include "ann/vector_matrix.h"

namespace saga::ann {

/// Exact top-k over one or more VectorMatrix blocks: "select in fp32,
/// rescore in double". Scan() scores rows with the dispatched kernel
/// and keeps a small fp32 candidate pool; Finish() rescores the pool
/// with the double `Similarity`, so returned similarities are exactly
/// what a plain double scan returns. When fp32 rounding could have
/// dropped a true top-k row (a near tie at the pool boundary), Finish()
/// re-scans for every row within the rounding bound of the k-th score,
/// so the result always equals the plain double scan. Order:
/// similarity descending, then label ascending.
class TopKScan {
 public:
  /// `query` must outlive Finish().
  TopKScan(Metric metric, const std::vector<float>& query, size_t k);

  /// Scores every row of `rows`, which must outlive Finish().
  void Scan(const VectorMatrix& rows);
  std::vector<Neighbor> Finish();

 private:
  struct Candidate {
    float score;
    uint32_t block;  // index into blocks_
    uint32_t row;
  };

  /// Min-heap order on the fp32 score: the weakest candidate on top.
  static bool WeakerFirst(const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  }

  /// Calls `fn(row, score)` for every row of `rows`.
  template <typename Fn>
  void ForEachScore(const VectorMatrix& rows, Fn&& fn) const;
  /// The candidates' double similarities, best first.
  std::vector<Neighbor> Rescore(const std::vector<Candidate>& cands) const;
  /// Upper bound on |fp32 score - double similarity| over scanned rows.
  double RoundingBound() const;

  Metric metric_;
  const float* query_;
  size_t dim_;
  double query_norm_;
  float query_inv_norm_;
  size_t k_;
  size_t pool_cap_;
  ScoreBlockFn score_;
  std::vector<const VectorMatrix*> blocks_;
  std::vector<Candidate> pool_;  // min-heap on score once full
};

}  // namespace saga::ann

#endif  // SAGA_ANN_TOP_K_SCAN_H_
