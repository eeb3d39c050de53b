#include "ann/top_k_scan.h"

#include <algorithm>
#include <cassert>

namespace saga::ann {
namespace {

/// Rows scored per kernel call, into a stack buffer.
constexpr size_t kBlockRows = 256;
/// Candidates kept past k, so a near tie at the k-th place rarely
/// needs the second pass.
constexpr size_t kPoolSlack = 16;
/// fp32 unit roundoff.
constexpr double kFloatEps = 1.0 / (1 << 24);

bool Better(const Neighbor& a, const Neighbor& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.label < b.label;
}

}  // namespace

TopKScan::TopKScan(Metric metric, const std::vector<float>& query, size_t k)
    : metric_(metric),
      query_(query.data()),
      dim_(query.size()),
      query_norm_(Norm(query.data(), query.size())),
      query_inv_norm_(query_norm_ > 0.0 ? static_cast<float>(1.0 / query_norm_)
                                        : 0.0f),
      k_(k),
      pool_cap_(k == 0 ? 0 : k + kPoolSlack),
      score_(ScoreBlock()) {
  pool_.reserve(pool_cap_);
}

template <typename Fn>
void TopKScan::ForEachScore(const VectorMatrix& rows, Fn&& fn) const {
  float scores[kBlockRows];
  for (size_t begin = 0; begin < rows.size(); begin += kBlockRows) {
    const size_t n = std::min(kBlockRows, rows.size() - begin);
    score_(metric_, query_, query_inv_norm_, rows.row(begin),
           rows.inv_norms() + begin, n, dim_, scores);
    for (size_t i = 0; i < n; ++i) {
      fn(static_cast<uint32_t>(begin + i), scores[i]);
    }
  }
}

void TopKScan::Scan(const VectorMatrix& rows) {
  assert(static_cast<size_t>(rows.dim()) == dim_);
  if (k_ == 0) return;
  const auto block = static_cast<uint32_t>(blocks_.size());
  blocks_.push_back(&rows);
  ForEachScore(rows, [&](uint32_t row, float score) {
    if (pool_.size() < pool_cap_) {
      pool_.push_back(Candidate{score, block, row});
      std::push_heap(pool_.begin(), pool_.end(), WeakerFirst);
    } else if (score > pool_.front().score) {
      std::pop_heap(pool_.begin(), pool_.end(), WeakerFirst);
      pool_.back() = Candidate{score, block, row};
      std::push_heap(pool_.begin(), pool_.end(), WeakerFirst);
    }
  });
}

std::vector<Neighbor> TopKScan::Rescore(
    const std::vector<Candidate>& cands) const {
  std::vector<Neighbor> hits;
  hits.reserve(cands.size());
  for (const Candidate& c : cands) {
    const VectorMatrix& rows = *blocks_[c.block];
    hits.push_back(Neighbor{
        rows.label(c.row), Similarity(metric_, query_, rows.row(c.row), dim_)});
  }
  std::sort(hits.begin(), hits.end(), Better);
  return hits;
}

double TopKScan::RoundingBound() const {
  double max_norm = 0.0;
  for (const VectorMatrix* rows : blocks_) {
    max_norm = std::max(max_norm, rows->max_norm());
  }
  // Any-order fp32 sum of dim terms: error <= dim * eps * sum |term|,
  // and sum |term| is bounded by Cauchy-Schwarz (1 for cosine). The +4
  // covers the difference, norm and scaling roundings; x2 is margin.
  double scale = 1.0;
  if (metric_ == Metric::kDot) scale = query_norm_ * max_norm;
  if (metric_ == Metric::kL2) {
    scale = (query_norm_ + max_norm) * (query_norm_ + max_norm);
  }
  return 2.0 * (static_cast<double>(dim_) + 4.0) * kFloatEps * scale;
}

std::vector<Neighbor> TopKScan::Finish() {
  std::vector<Neighbor> hits = Rescore(pool_);
  if (k_ > 0 && pool_.size() == pool_cap_) {
    // A row left out of the pool scored at most the pool's weakest
    // fp32 score, so its true similarity is at most that plus `bound`.
    const double bound = RoundingBound();
    const double floor = hits[k_ - 1].similarity - bound;
    if (!(pool_.front().score < floor)) {
      // Second pass: every row whose fp32 score leaves it a chance at
      // the k-th similarity.
      std::vector<Candidate> cands;
      for (uint32_t b = 0; b < blocks_.size(); ++b) {
        ForEachScore(*blocks_[b], [&](uint32_t row, float score) {
          if (!(score < floor)) cands.push_back(Candidate{score, b, row});
        });
      }
      hits = Rescore(cands);
    }
  }
  if (hits.size() > k_) hits.resize(k_);
  return hits;
}

}  // namespace saga::ann
