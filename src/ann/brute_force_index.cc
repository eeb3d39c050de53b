#include "ann/brute_force_index.h"

#include <cassert>

#include "ann/top_k_scan.h"

namespace saga::ann {

void BruteForceIndex::Add(uint64_t label, const std::vector<float>& vec) {
  assert(static_cast<int>(vec.size()) == rows_.dim());
  rows_.Add(label, vec.data());
}

std::vector<Neighbor> BruteForceIndex::Search(const std::vector<float>& query,
                                              size_t k) const {
  TopKScan scan(metric_, query, k);
  scan.Scan(rows_);
  return scan.Finish();
}

}  // namespace saga::ann
