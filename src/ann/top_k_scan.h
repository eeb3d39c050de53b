#ifndef SAGA_ANN_TOP_K_SCAN_H_
#define SAGA_ANN_TOP_K_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ann/index.h"
#include "ann/scan_kernel.h"
#include "ann/vector_matrix.h"

namespace saga::ann {

/// Exact top-k over one or more VectorMatrix objects: "select in fp16,
/// rescore in double". Scan() runs the dispatched kernel over the
/// matrices' fp16 copies; the kernel hands back only the rows that
/// score above the weakest fp32 score of a small candidate pool, and
/// the pool's min-heap sees only those. Finish() rescores the pool with
/// the double `Similarity` on the fp32 rows, so returned similarities
/// are exactly what a plain double scan returns. When fp16
/// quantization or fp32 rounding could have dropped a true top-k row (a
/// near tie at the pool boundary), Finish() re-scans for every row
/// within the rounding bound of the k-th score, so the result always
/// equals the plain double scan. Order: similarity descending, then
/// label ascending.
class TopKScan {
 public:
  /// `query` must outlive Finish().
  TopKScan(Metric metric, const std::vector<float>& query, size_t k);

  /// Scores every row of `rows`, which must outlive Finish().
  void Scan(const VectorMatrix& rows);
  std::vector<Neighbor> Finish();
  /// Whether Finish() had to look past the pool (the second pass).
  bool second_pass() const { return second_pass_; }

 private:
  struct Candidate {
    float score;
    uint32_t matrix;  // index into matrices_
    uint32_t row;
  };

  /// Min-heap order on the fp32 score: the weakest candidate on top.
  static bool WeakerFirst(const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  }

  /// Calls `fn(row, score)` for every row of `rows` whose fp32 score
  /// is above `floor()`, which is re-read between kernel calls.
  template <typename Floor, typename Fn>
  void ForEachSurvivor(const VectorMatrix& rows, Floor&& floor,
                       Fn&& fn) const;
  /// Puts `c` in place of the weakest candidate of the full pool.
  void ReplaceWeakest(const Candidate& c);
  /// The candidates' double similarities, best first.
  std::vector<Neighbor> Rescore(const std::vector<Candidate>& cands) const;
  /// Upper bound on |fp32 score of the fp16 row - double similarity of
  /// the fp32 row| over scanned rows; +inf when none holds.
  double RoundingBound() const;

  Metric metric_;
  const float* query_;
  size_t dim_;
  double query_norm_;
  float query_inv_norm_;
  size_t k_;
  size_t pool_cap_;
  ScanBlocksFn scan_;
  std::vector<const VectorMatrix*> matrices_;
  std::vector<Candidate> pool_;  // min-heap on score once full
  bool second_pass_ = false;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_TOP_K_SCAN_H_
