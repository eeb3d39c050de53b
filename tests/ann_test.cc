#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/distance.h"
#include "ann/ivf_index.h"
#include "ann/quantization.h"
#include "ann/scan_kernel.h"
#include "ann/vector_matrix.h"
#include "common/rng.h"

namespace saga::ann {
namespace {

std::vector<std::vector<float>> RandomVectors(size_t n, int dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (auto& v : out) {
    for (float& x : v) {
      x = static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

// ---------- Distance ----------

TEST(DistanceTest, BasicIdentities) {
  const float a[] = {1.0f, 0.0f, 2.0f};
  const float b[] = {0.0f, 3.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 2.0);
  EXPECT_DOUBLE_EQ(L2Sq(a, a, 3), 0.0);
  EXPECT_DOUBLE_EQ(L2Sq(a, b, 3), 1.0 + 9.0 + 1.0);
  EXPECT_NEAR(CosineSim(a, a, 3), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Similarity(Metric::kL2, a, b, 3), -11.0);
  EXPECT_DOUBLE_EQ(Similarity(Metric::kDot, a, b, 3), 2.0);
}

TEST(DistanceTest, CosineOfZeroVectorIsZero) {
  const float z[] = {0.0f, 0.0f};
  const float a[] = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(CosineSim(z, a, 2), 0.0);
}

// ---------- BruteForce ----------

TEST(BruteForceTest, FindsExactNearestByEachMetric) {
  for (Metric metric : {Metric::kDot, Metric::kCosine, Metric::kL2}) {
    BruteForceIndex index(4, metric);
    auto vecs = RandomVectors(200, 4, 42);
    for (size_t i = 0; i < vecs.size(); ++i) index.Add(i, vecs[i]);
    index.Build();

    const auto query = RandomVectors(1, 4, 99)[0];
    const auto hits = index.Search(query, 10);
    ASSERT_EQ(hits.size(), 10u);
    // Verify against a straightforward scan.
    double best = -1e300;
    uint64_t best_label = 0;
    for (size_t i = 0; i < vecs.size(); ++i) {
      const double s = Similarity(metric, query.data(), vecs[i].data(), 4);
      if (s > best) {
        best = s;
        best_label = i;
      }
    }
    EXPECT_EQ(hits[0].label, best_label);
    EXPECT_NEAR(hits[0].similarity, best, 1e-9);
    // Sorted descending.
    for (size_t i = 1; i < hits.size(); ++i) {
      EXPECT_GE(hits[i - 1].similarity, hits[i].similarity);
    }
  }
}

TEST(BruteForceTest, SelfIsNearestUnderCosine) {
  BruteForceIndex index(8, Metric::kCosine);
  auto vecs = RandomVectors(100, 8, 7);
  for (size_t i = 0; i < vecs.size(); ++i) index.Add(i, vecs[i]);
  index.Build();
  for (size_t i = 0; i < 20; ++i) {
    const auto hits = index.Search(vecs[i], 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].label, i);
  }
}

TEST(BruteForceTest, KLargerThanIndexReturnsAll) {
  BruteForceIndex index(2, Metric::kDot);
  index.Add(1, {1.0f, 0.0f});
  index.Add(2, {0.0f, 1.0f});
  index.Build();
  EXPECT_EQ(index.Search({1.0f, 1.0f}, 10).size(), 2u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(BruteForceTest, EmptyIndexReturnsNothing) {
  BruteForceIndex index(2, Metric::kDot);
  index.Build();
  EXPECT_TRUE(index.Search({1.0f, 0.0f}, 5).empty());
}

// ---------- IVF ----------

TEST(IvfTest, FullProbeMatchesBruteForce) {
  const int dim = 8;
  auto vecs = RandomVectors(500, dim, 3);
  BruteForceIndex exact(dim, Metric::kCosine);
  IvfIndex::Options opts;
  opts.num_lists = 10;
  opts.nprobe = 10;  // probe everything -> exact
  IvfIndex ivf(dim, Metric::kCosine, opts);
  for (size_t i = 0; i < vecs.size(); ++i) {
    exact.Add(i, vecs[i]);
    ivf.Add(i, vecs[i]);
  }
  exact.Build();
  ivf.Build();

  const auto query = RandomVectors(1, dim, 77)[0];
  const auto exact_hits = exact.Search(query, 10);
  const auto ivf_hits = ivf.Search(query, 10);
  ASSERT_EQ(ivf_hits.size(), exact_hits.size());
  for (size_t i = 0; i < exact_hits.size(); ++i) {
    EXPECT_EQ(ivf_hits[i].label, exact_hits[i].label);
  }
}

TEST(IvfTest, RecallImprovesWithNprobe) {
  const int dim = 16;
  const size_t n = 2000;
  auto vecs = RandomVectors(n, dim, 5);
  BruteForceIndex exact(dim, Metric::kCosine);
  IvfIndex::Options opts;
  opts.num_lists = 32;
  IvfIndex ivf(dim, Metric::kCosine, opts);
  for (size_t i = 0; i < n; ++i) {
    exact.Add(i, vecs[i]);
    ivf.Add(i, vecs[i]);
  }
  exact.Build();
  ivf.Build();

  auto recall_at = [&](int nprobe) {
    ivf.set_nprobe(nprobe);
    double recall_sum = 0.0;
    const int queries = 30;
    for (int q = 0; q < queries; ++q) {
      const auto query = RandomVectors(1, dim, 1000 + q)[0];
      const auto truth = exact.Search(query, 10);
      const auto approx = ivf.Search(query, 10);
      std::set<uint64_t> truth_set;
      for (const auto& h : truth) truth_set.insert(h.label);
      int hit = 0;
      for (const auto& h : approx) {
        if (truth_set.count(h.label)) ++hit;
      }
      recall_sum += hit / 10.0;
    }
    return recall_sum / queries;
  };

  const double recall1 = recall_at(1);
  const double recall8 = recall_at(8);
  const double recall32 = recall_at(32);
  EXPECT_GT(recall8, recall1);
  EXPECT_GT(recall32, 0.99);
  EXPECT_GT(recall8, 0.5);
}

TEST(IvfTest, HandlesFewerPointsThanLists) {
  IvfIndex::Options opts;
  opts.num_lists = 64;
  IvfIndex ivf(2, Metric::kL2, opts);
  ivf.Add(1, {0.0f, 0.0f});
  ivf.Add(2, {1.0f, 1.0f});
  ivf.Build();
  const auto hits = ivf.Search({0.1f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].label, 1u);
}

TEST(IvfTest, EmptyIndexIsFine) {
  IvfIndex ivf(4, Metric::kDot);
  ivf.Build();
  EXPECT_TRUE(ivf.Search({0, 0, 0, 0}, 3).empty());
}

// ---------- Scan kernel ----------

const int kKernelDims[] = {1, 3, 7, 8, 31, 32, 33, 100};
const size_t kKernelRows[] = {0, 1, 3, 4, 5, 255, 256, 257, 1000};
const Metric kMetrics[] = {Metric::kDot, Metric::kCosine, Metric::kL2};

// Gaussian rows with every fifth row zero; labels scrambled so that
// label order (the tie-break) differs from insertion order.
struct KernelCase {
  std::vector<std::vector<float>> rows;
  std::vector<uint64_t> labels;
  VectorMatrix matrix;
};

KernelCase MakeKernelCase(size_t n, int dim, uint64_t seed) {
  KernelCase c{RandomVectors(n, dim, seed), {}, VectorMatrix(dim)};
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 2) std::fill(c.rows[i].begin(), c.rows[i].end(), 0.0f);
    c.labels.push_back((i * 7919) % 10007);
    c.matrix.Add(c.labels[i], c.rows[i].data());
  }
  return c;
}

std::vector<std::vector<float>> KernelQueries(int dim, uint64_t seed) {
  return {RandomVectors(1, dim, seed)[0], std::vector<float>(dim, 0.0f)};
}

float InvNorm(const std::vector<float>& v) {
  const double n = Norm(v.data(), v.size());
  return n > 0.0 ? static_cast<float>(1.0 / n) : 0.0f;
}

std::vector<float> ScoreAll(ScoreBlockFn fn, Metric metric,
                            const std::vector<float>& query,
                            const VectorMatrix& m) {
  std::vector<float> scores(m.size());
  fn(metric, query.data(), InvNorm(query), m.row(0), m.inv_norms(), m.size(),
     query.size(), scores.data());
  return scores;
}

// The plain reference: every similarity in double, best first, ties by
// label.
std::vector<Neighbor> ReferenceTopK(Metric metric, const KernelCase& c,
                                    const std::vector<float>& query,
                                    size_t k) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < c.rows.size(); ++i) {
    all.push_back(Neighbor{c.labels[i], Similarity(metric, query.data(),
                                                   c.rows[i].data(),
                                                   query.size())});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.label < b.label;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameHits(const std::vector<Neighbor>& got,
                    const std::vector<Neighbor>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << what << " rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << what << " rank " << i;
  }
}

TEST(ScanKernelTest, Avx2MatchesScalarReference) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "CPU lacks AVX2+FMA";
  for (int dim : kKernelDims) {
    for (size_t n : kKernelRows) {
      const KernelCase c = MakeKernelCase(n, dim, 1000 * dim + n);
      for (const auto& query : KernelQueries(dim, 7 * dim + n)) {
        for (Metric metric : kMetrics) {
          const auto scalar = ScoreAll(&ScoreBlockScalar, metric, query,
                                       c.matrix);
          const auto avx2 = ScoreAll(&ScoreBlockAvx2, metric, query,
                                     c.matrix);
          for (size_t i = 0; i < n; ++i) {
            // Relative error, floored at magnitude 1 so a score that
            // cancels to ~0 is not held to a tighter bound than fp32 has.
            const double scale = std::max(1.0, std::abs(double{scalar[i]}));
            EXPECT_LE(std::abs(double{avx2[i]} - scalar[i]), 1e-5 * scale)
                << "dim " << dim << " n " << n << " row " << i << " metric "
                << static_cast<int>(metric);
          }
        }
      }
    }
  }
}

// TopKScan's exactness rests on this bound: every fp32 kernel score is
// within (dim + 4) * 2^-24 * scale of the double similarity.
TEST(ScanKernelTest, KernelsStayWithinTheRoundingBound) {
  std::vector<std::pair<const char*, ScoreBlockFn>> kernels = {
      {"scalar", &ScoreBlockScalar}};
  if (CpuHasAvx2Fma()) kernels.emplace_back("avx2", &ScoreBlockAvx2);
  for (int dim : kKernelDims) {
    const KernelCase c = MakeKernelCase(257, dim, 31 * dim);
    for (const auto& query : KernelQueries(dim, 17 * dim)) {
      const double qn = Norm(query.data(), dim);
      for (Metric metric : kMetrics) {
        for (const auto& [name, fn] : kernels) {
          const auto scores = ScoreAll(fn, metric, query, c.matrix);
          for (size_t i = 0; i < c.rows.size(); ++i) {
            const double rn = Norm(c.rows[i].data(), dim);
            double scale = 1.0;
            if (metric == Metric::kDot) scale = qn * rn;
            if (metric == Metric::kL2) scale = (qn + rn) * (qn + rn);
            const double want =
                Similarity(metric, query.data(), c.rows[i].data(), dim);
            EXPECT_LE(std::abs(scores[i] - want),
                      (dim + 4) * std::ldexp(scale, -24))
                << name << " dim " << dim << " row " << i << " metric "
                << static_cast<int>(metric);
          }
        }
      }
    }
  }
}

TEST(ScanKernelTest, DispatchPicksAvx2WhenPresent) {
  EXPECT_EQ(ScoreBlock() == &ScoreBlockAvx2, CpuHasAvx2Fma());
  EXPECT_STREQ(ScoreBlockName(), CpuHasAvx2Fma() ? "avx2+fma" : "scalar");
}

TEST(ScanKernelTest, IndexesMatchPlainDoubleScan) {
  for (int dim : kKernelDims) {
    for (size_t n : kKernelRows) {
      const KernelCase c = MakeKernelCase(n, dim, 2000 * dim + n);
      for (Metric metric : kMetrics) {
        BruteForceIndex exact(dim, metric);
        IvfIndex::Options opts;
        opts.num_lists = 8;
        opts.nprobe = 8;  // every list: exact
        IvfIndex ivf(dim, metric, opts);
        for (size_t i = 0; i < n; ++i) {
          exact.Add(c.labels[i], c.rows[i]);
          ivf.Add(c.labels[i], c.rows[i]);
        }
        ivf.Build();
        for (const auto& query : KernelQueries(dim, 3 * dim + n)) {
          for (size_t k : {size_t{1}, size_t{11}, size_t{50}}) {
            const auto want = ReferenceTopK(metric, c, query, k);
            const std::string what =
                "dim " + std::to_string(dim) + " n " + std::to_string(n) +
                " metric " + std::to_string(static_cast<int>(metric)) +
                " k " + std::to_string(k);
            ExpectSameHits(exact.Search(query, k), want, "exact " + what);
            ExpectSameHits(ivf.Search(query, k), want, "ivf " + what);
          }
        }
      }
    }
  }
}

// Rows closer together than fp32 can tell apart, plus exact
// duplicates: the fp32 pool boundary is a near tie, so the result must
// come from the rescoring second pass and still match the double scan.
TEST(ScanKernelTest, NearTiesAndDuplicatesMatchPlainDoubleScan) {
  const int dim = 32;
  const auto base = RandomVectors(1, dim, 5)[0];
  KernelCase c{{}, {}, VectorMatrix(dim)};
  Rng rng(6);
  for (size_t i = 0; i < 600; ++i) {
    std::vector<float> row = base;
    if (i % 3 != 0) {
      // A few ulps on one component.
      const size_t d = rng.Uniform(dim);
      for (uint64_t u = rng.Uniform(4); u > 0; --u) {
        row[d] = std::nextafter(row[d], rng.Bernoulli(0.5) ? 1e9f : -1e9f);
      }
    }
    c.rows.push_back(row);
    c.labels.push_back((i * 7919) % 10007);
    c.matrix.Add(c.labels.back(), row.data());
  }
  const auto far = RandomVectors(1, dim, 8)[0];
  for (Metric metric : kMetrics) {
    BruteForceIndex exact(dim, metric);
    for (size_t i = 0; i < c.rows.size(); ++i) {
      exact.Add(c.labels[i], c.rows[i]);
    }
    for (const auto& query : {base, far}) {
      for (size_t k : {size_t{1}, size_t{11}, size_t{100}}) {
        ExpectSameHits(exact.Search(query, k),
                       ReferenceTopK(metric, c, query, k),
                       "metric " + std::to_string(static_cast<int>(metric)) +
                           " k " + std::to_string(k));
      }
    }
  }
}

// ---------- Quantization ----------

TEST(QuantizationTest, RoundTripErrorIsBounded) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(64);
    float max_abs = 0.0f;
    for (float& v : x) {
      v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      max_abs = std::max(max_abs, std::abs(v));
    }
    const QuantizedVector q = QuantizeInt8(x);
    const std::vector<float> restored = DequantizeInt8(q);
    ASSERT_EQ(restored.size(), x.size());
    const float tolerance = max_abs / 127.0f + 1e-6f;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(restored[i], x[i], tolerance);
    }
  }
}

TEST(QuantizationTest, ZeroVector) {
  const std::vector<float> zero(16, 0.0f);
  const QuantizedVector q = QuantizeInt8(zero);
  for (int8_t v : q.q) EXPECT_EQ(v, 0);
  EXPECT_EQ(DequantizeInt8(q), zero);
}

TEST(QuantizationTest, DotApproximatesFloatDot) {
  Rng rng(11);
  double max_rel_err = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> a(32);
    std::vector<float> b(32);
    for (int i = 0; i < 32; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
    }
    const double exact = Dot(a.data(), b.data(), 32);
    const double approx = DotQuantized(a, QuantizeInt8(b));
    const double scale = std::abs(exact) + 1.0;
    max_rel_err = std::max(max_rel_err, std::abs(exact - approx) / scale);
  }
  EXPECT_LT(max_rel_err, 0.05);
}

TEST(QuantizationTest, CompressionRatioIsFourX) {
  const std::vector<float> x(128, 1.0f);
  const QuantizedVector q = QuantizeInt8(x);
  EXPECT_EQ(QuantizedBytes(q), 128u + sizeof(float));
  EXPECT_LT(QuantizedBytes(q) * 3, x.size() * sizeof(float));
}

}  // namespace
}  // namespace saga::ann
