#include "ann/top_k_scan.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <limits>

namespace saga::ann {
namespace {

/// Rows per kernel call; the pool floor the kernel filters against is
/// refreshed between calls.
constexpr size_t kChunkRows = 8 * kScanBlockRows;
/// Candidates kept past k, so a near tie at the k-th place rarely
/// needs the second pass.
constexpr size_t kPoolSlack = 16;
/// fp32 unit roundoff.
constexpr double kFloatEps = 1.0 / (1 << 24);
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr float kInfF = std::numeric_limits<float>::infinity();

bool Better(const Neighbor& a, const Neighbor& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.label < b.label;
}

/// The largest float below `x`, so that for every float s,
/// `s > FloatBelow(x)` exactly when `s >= x`.
float FloatBelow(double x) {
  if (x > FLT_MAX) return FLT_MAX;
  if (x <= -FLT_MAX) return -kInfF;
  const float f = static_cast<float>(x);
  return static_cast<double>(f) < x ? f : std::nextafter(f, -kInfF);
}

}  // namespace

TopKScan::TopKScan(Metric metric, const std::vector<float>& query, size_t k)
    : metric_(metric),
      query_(query.data()),
      dim_(query.size()),
      query_norm_(Norm(query.data(), query.size())),
      query_inv_norm_(query_norm_ > 0.0 && 1.0 / query_norm_ <= FLT_MAX
                          ? static_cast<float>(1.0 / query_norm_)
                          : 0.0f),
      k_(k),
      pool_cap_(k == 0 ? 0 : k + kPoolSlack),
      scan_(ScanBlocks()) {
  pool_.reserve(pool_cap_);
}

template <typename Floor, typename Fn>
void TopKScan::ForEachSurvivor(const VectorMatrix& rows, Floor&& floor,
                               Fn&& fn) const {
  Survivor kept[kChunkRows];
  for (size_t begin = 0; begin < rows.size(); begin += kChunkRows) {
    const size_t n = std::min(kChunkRows, rows.size() - begin);
    const size_t count =
        scan_(metric_, query_, query_inv_norm_,
              rows.block(begin / kScanBlockRows), rows.inv_norms() + begin, n,
              dim_, floor(), kept);
    for (size_t i = 0; i < count; ++i) {
      fn(static_cast<uint32_t>(begin + kept[i].row), kept[i].score);
    }
  }
}

void TopKScan::Scan(const VectorMatrix& rows) {
  assert(static_cast<size_t>(rows.dim()) == dim_);
  if (k_ == 0) return;
  const auto matrix = static_cast<uint32_t>(matrices_.size());
  matrices_.push_back(&rows);
  ForEachSurvivor(
      rows,
      [this] {
        return pool_.size() < pool_cap_ ? -kInfF : pool_.front().score;
      },
      [&](uint32_t row, float score) {
        // The floor may have risen since the kernel call.
        if (pool_.size() < pool_cap_) {
          pool_.push_back(Candidate{score, matrix, row});
          std::push_heap(pool_.begin(), pool_.end(), WeakerFirst);
        } else if (score > pool_.front().score) {
          ReplaceWeakest(Candidate{score, matrix, row});
        }
      });
}

void TopKScan::ReplaceWeakest(const Candidate& c) {
  // One sift-down from the root, where pop_heap + push_heap would walk
  // the heap twice.
  const size_t n = pool_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && pool_[child + 1].score < pool_[child].score) ++child;
    if (!(pool_[child].score < c.score)) break;
    pool_[hole] = pool_[child];
    hole = child;
  }
  pool_[hole] = c;
}

std::vector<Neighbor> TopKScan::Rescore(
    const std::vector<Candidate>& cands) const {
  std::vector<Neighbor> hits;
  hits.reserve(cands.size());
  for (const Candidate& c : cands) {
    const VectorMatrix& rows = *matrices_[c.matrix];
    hits.push_back(Neighbor{
        rows.label(c.row), Similarity(metric_, query_, rows.row(c.row), dim_)});
  }
  std::sort(hits.begin(), hits.end(), Better);
  return hits;
}

double TopKScan::RoundingBound() const {
  double max_norm = 0.0;
  double abs_err = 0.0;  // max |fp16(r) - r|
  double rel_err = 0.0;  // max |fp16(r) - r| / |r|
  for (const VectorMatrix* rows : matrices_) {
    max_norm = std::max(max_norm, rows->max_norm());
    abs_err = std::max(abs_err, rows->max_half_error());
    rel_err = std::max(rel_err, rows->max_half_rel_error());
  }
  if (std::isinf(abs_err)) return kInf;  // a component beyond fp16 range
  // fp32 term. Any-order fp32 sum of dim terms: error <= dim * eps *
  // sum |term|, and sum |term| is bounded by Cauchy-Schwarz (1 for
  // cosine). The +4 covers the difference, norm and scaling roundings.
  // Quantization term: how far the exact score of fp16(r) can be from
  // r's. x2 is margin; it also covers |fp16(r)| <= (1 + rel_err) |r| in
  // the fp32 term.
  const double fp32 = (static_cast<double>(dim_) + 4.0) * kFloatEps;
  double bound = 0.0;
  double magnitude = query_norm_ * (max_norm + abs_err);  // max |q.fp16(r)|
  switch (metric_) {
    case Metric::kCosine:
      // A nonzero query too short for an fp32 inverse norm scores 0.
      if (query_norm_ > 0.0 && query_inv_norm_ == 0.0f) return kInf;
      bound = fp32 + rel_err;
      break;
    case Metric::kDot:
      bound = fp32 * query_norm_ * max_norm + query_norm_ * abs_err;
      break;
    case Metric::kL2: {
      const double reach = query_norm_ + max_norm;
      bound = fp32 * reach * reach +
              abs_err * (2.0 * query_norm_ + 2.0 * max_norm + abs_err);
      magnitude = (reach + abs_err) * (reach + abs_err);
      break;
    }
  }
  // Past this an fp32 sum may overflow to inf or NaN, which no bound
  // covers (a NaN query lands here too).
  if (!(magnitude < FLT_MAX / 2)) return kInf;
  return 2.0 * bound;
}

std::vector<Neighbor> TopKScan::Finish() {
  std::vector<Neighbor> hits = Rescore(pool_);
  if (k_ == 0 || matrices_.empty()) return hits;
  const double bound = RoundingBound();
  if (!(bound < kInf)) {
    // No bound: scores may be anything, so rescore every row.
    second_pass_ = true;
    std::vector<Candidate> all;
    for (uint32_t m = 0; m < matrices_.size(); ++m) {
      for (uint32_t row = 0; row < matrices_[m]->size(); ++row) {
        all.push_back(Candidate{0.0f, m, row});
      }
    }
    hits = Rescore(all);
  } else if (pool_.size() == pool_cap_) {
    // A row left out of the pool scored at most the pool's weakest
    // fp32 score, so its true similarity is at most that plus `bound`.
    const double floor = hits[k_ - 1].similarity - bound;
    if (!(pool_.front().score < floor)) {
      // Second pass: every row whose fp32 score leaves it a chance at
      // the k-th similarity.
      second_pass_ = true;
      const float below = FloatBelow(floor);
      std::vector<Candidate> cands;
      for (uint32_t m = 0; m < matrices_.size(); ++m) {
        ForEachSurvivor(
            *matrices_[m], [below] { return below; },
            [&](uint32_t row, float score) {
              cands.push_back(Candidate{score, m, row});
            });
      }
      hits = Rescore(cands);
    }
  }
  if (hits.size() > k_) hits.resize(k_);
  return hits;
}

}  // namespace saga::ann
