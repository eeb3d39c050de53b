#include <gtest/gtest.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/distance.h"
#include "ann/ivf_index.h"
#include "ann/scan_kernel.h"
#include "ann/top_k_scan.h"
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

// ---------- fp16 conversion ----------

#if defined(__x86_64__) || defined(__i386__)
#define SAGA_TEST_X86 1
bool CpuHasF16c() { return __builtin_cpu_supports("f16c"); }
__attribute__((target("f16c"))) uint16_t HardwareFloatToHalf(float f) {
  return static_cast<uint16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
}
__attribute__((target("f16c"))) float HardwareHalfToFloat(uint16_t h) {
  return _cvtsh_ss(h);
}
#endif

bool IsHalfNan(uint16_t h) { return (h & 0x7c00u) == 0x7c00u && (h & 0x3ffu); }

uint32_t Bits(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  return x;
}

float FromBits(uint32_t x) {
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

TEST(HalfTest, EveryHalfRoundTripsThroughFloat) {
  for (uint32_t h = 0; h <= 0xffff; ++h) {
    const auto half = static_cast<uint16_t>(h);
    const float f = HalfToFloat(half);
    if (IsHalfNan(half)) {
      EXPECT_TRUE(std::isnan(f)) << std::hex << h;
      EXPECT_TRUE(IsHalfNan(FloatToHalf(f))) << std::hex << h;
    } else {
      EXPECT_EQ(FloatToHalf(f), half) << std::hex << h;
    }
#ifdef SAGA_TEST_X86
    if (CpuHasF16c()) {
      const float hw = HardwareHalfToFloat(half);
      if (IsHalfNan(half)) {
        EXPECT_TRUE(std::isnan(hw)) << std::hex << h;
      } else {
        EXPECT_EQ(Bits(f), Bits(hw)) << std::hex << h;
      }
    }
#endif
  }
}

TEST(HalfTest, FloatToHalfMatchesF16c) {
#ifdef SAGA_TEST_X86
  if (!CpuHasF16c()) GTEST_SKIP() << "CPU lacks F16C";
  std::vector<float> sweep = {0.0f, -0.0f, 65504.0f, 65519.996f, 65520.0f,
                              65536.0f, 1e5f, 3.0e38f, 0x1p-24f, 0x1p-25f,
                              0x1p-26f, 0x1p-14f, 1e-45f,
                              std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN(),
                              FromBits(0x7f800001u), FromBits(0x7fc12345u),
                              FromBits(0xffa00000u)};
  // Every half, the midpoint to its successor (an RNE tie) and the
  // floats either side of that midpoint; covers subnormals and the
  // 65504/65520 overflow edge.
  for (uint32_t h = 0; h < 0x7c00; ++h) {
    const float lo = HalfToFloat(static_cast<uint16_t>(h));
    const float hi = h + 1 < 0x7c00 ? HalfToFloat(static_cast<uint16_t>(h + 1))
                                    : 65536.0f;
    const float mid = lo + (hi - lo) / 2;  // exact: 11 of 24 bits used
    for (float f : {lo, mid, std::nextafter(mid, 0.0f),
                    std::nextafter(mid, 1e9f)}) {
      sweep.push_back(f);
      sweep.push_back(-f);
    }
  }
  Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    sweep.push_back(FromBits(static_cast<uint32_t>(rng.NextUint64())));
  }
  for (float f : sweep) {
    EXPECT_EQ(FloatToHalf(f), HardwareFloatToHalf(f))
        << std::hex << Bits(f) << " (" << f << ")";
  }
#else
  GTEST_SKIP() << "not an x86 CPU";
#endif
}

// ---------- VectorMatrix ----------

TEST(VectorMatrixTest, Fp16BlocksAreDimMajorAndZeroPadded) {
  const int dim = 3;
  const auto rows = RandomVectors(17, dim, 4);
  VectorMatrix m(dim);
  for (size_t i = 0; i < rows.size(); ++i) m.Add(i, rows[i].data());
  m.ShrinkToFit();
  double max_err = 0.0;
  double max_rel = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint16_t* block = m.block(i / 16);
    double err2 = 0.0;
    for (int d = 0; d < dim; ++d) {
      const uint16_t h = block[d * 16 + i % 16];
      EXPECT_EQ(h, FloatToHalf(rows[i][d])) << "row " << i << " dim " << d;
      const double e = double{HalfToFloat(h)} - rows[i][d];
      err2 += e * e;
    }
    max_err = std::max(max_err, std::sqrt(err2));
    max_rel = std::max(max_rel, std::sqrt(err2) / Norm(rows[i].data(), dim));
  }
  // Row 16 opens block 1; its other 15 lanes and inv norms are zero.
  for (size_t lane = 1; lane < 16; ++lane) {
    for (int d = 0; d < dim; ++d) EXPECT_EQ(m.block(1)[d * 16 + lane], 0u);
    EXPECT_EQ(m.inv_norms()[16 + lane], 0.0f);
  }
  EXPECT_EQ(m.max_half_error(), max_err);
  EXPECT_EQ(m.max_half_rel_error(), max_rel);
  EXPECT_GT(max_err, 0.0);

  VectorMatrix wide(2);
  const float in_range[] = {1.0f, 65504.0f};
  const float beyond[] = {1.0f, 1e5f};
  wide.Add(0, in_range);
  EXPECT_TRUE(std::isfinite(wide.max_half_error()));
  wide.Add(1, beyond);
  EXPECT_TRUE(std::isinf(wide.max_half_error()));
  EXPECT_TRUE(std::isinf(wide.max_half_rel_error()));
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

std::vector<Survivor> ScanAll(ScanBlocksFn fn, Metric metric,
                              const std::vector<float>& query,
                              const VectorMatrix& m, float floor) {
  std::vector<Survivor> out(m.size());
  out.resize(fn(metric, query.data(), InvNorm(query), m.block(0),
                m.inv_norms(), m.size(), query.size(), floor, out.data()));
  return out;
}

/// Every row's score: the survivors of a -inf floor, which are all rows
/// while scores are finite.
std::vector<float> ScoreAll(ScanBlocksFn fn, Metric metric,
                            const std::vector<float>& query,
                            const VectorMatrix& m) {
  const auto kept = ScanAll(fn, metric, query, m,
                            -std::numeric_limits<float>::infinity());
  EXPECT_EQ(kept.size(), m.size());
  std::vector<float> scores;
  for (const Survivor& s : kept) scores.push_back(s.score);
  return scores;
}

std::vector<std::pair<const char*, ScanBlocksFn>> SimdVariants() {
  std::vector<std::pair<const char*, ScanBlocksFn>> out;
  if (CpuHasAvx2Fma()) out.emplace_back("avx2", &ScanBlocksAvx2);
  if (CpuHasAvx512()) out.emplace_back("avx512", &ScanBlocksAvx512);
  return out;
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

// The scalar reference rounds each multiply and add, the SIMD variants
// fuse them, so scores differ in the last bits. A floor in a gap
// between sorted scalar scores wider than twice the 1e-5 tolerance,
// from the 90th percentile up, must keep the same rows in every
// variant; nullopt when there is no such gap.
std::optional<float> GapFloor(std::vector<float> scores) {
  std::sort(scores.begin(), scores.end());
  for (size_t i = scores.size() * 9 / 10; i + 1 < scores.size(); ++i) {
    const double lo = scores[i];
    const double hi = scores[i + 1];
    const double tol = 1e-5 * std::max({1.0, std::abs(lo), std::abs(hi)});
    if (hi - lo > 2 * tol) return static_cast<float>(lo + (hi - lo) / 2);
  }
  return std::nullopt;
}

TEST(ScanKernelTest, VariantsMatchScalarReference) {
  const auto variants = SimdVariants();
  if (variants.empty()) GTEST_SKIP() << "CPU lacks AVX2+FMA+F16C";
  for (int dim : kKernelDims) {
    for (size_t n : kKernelRows) {
      const KernelCase c = MakeKernelCase(n, dim, 1000 * dim + n);
      for (const auto& query : KernelQueries(dim, 7 * dim + n)) {
        for (Metric metric : kMetrics) {
          const auto all = ScoreAll(&ScanBlocksScalar, metric, query,
                                    c.matrix);
          // No floor, and a floor near the 90th percentile score.
          std::vector<float> floors = {-std::numeric_limits<float>::infinity()};
          if (const auto floor = GapFloor(all)) floors.push_back(*floor);
          for (float floor : floors) {
            const auto want =
                ScanAll(&ScanBlocksScalar, metric, query, c.matrix, floor);
            for (const auto& [name, fn] : variants) {
              const auto got = ScanAll(fn, metric, query, c.matrix, floor);
              const std::string what =
                  std::string(name) + " dim " + std::to_string(dim) + " n " +
                  std::to_string(n) + " metric " +
                  std::to_string(static_cast<int>(metric)) + " floor " +
                  std::to_string(floor);
              ASSERT_EQ(got.size(), want.size()) << what;
              for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].row, want[i].row) << what;
                // Relative error, floored at magnitude 1 so a score that
                // cancels to ~0 is not held to a tighter bound than fp32
                // has.
                const double scale =
                    std::max(1.0, std::abs(double{want[i].score}));
                EXPECT_LE(std::abs(double{got[i].score} - want[i].score),
                          1e-5 * scale)
                    << what << " row " << want[i].row;
              }
            }
          }
        }
      }
    }
  }
}

// TopKScan's exactness rests on this bound: every kernel score of the
// fp16 row is within the fp32 term, (dim + 4) * 2^-24 * scale, plus the
// quantization term of the double similarity of the fp32 row. Here the
// quantization term is the row's own: |fp16(r) - r| / |r| for cosine,
// |q| |fp16(r) - r| for dot, |fp16(r) - r| (2|q| + 2|r| + |fp16(r) - r|)
// for L2; TopKScan takes the maxima over all rows and doubles the sum.
TEST(ScanKernelTest, KernelsStayWithinTheRoundingBound) {
  std::vector<std::pair<const char*, ScanBlocksFn>> kernels = {
      {"scalar", &ScanBlocksScalar}};
  for (const auto& v : SimdVariants()) kernels.push_back(v);
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
            double err2 = 0.0;
            for (int d = 0; d < dim; ++d) {
              const double e =
                  double{HalfToFloat(FloatToHalf(c.rows[i][d]))} -
                  c.rows[i][d];
              err2 += e * e;
            }
            const double err = std::sqrt(err2);
            double quant = rn > 0.0 ? err / rn : 0.0;
            if (metric == Metric::kDot) quant = qn * err;
            if (metric == Metric::kL2) quant = err * (2 * qn + 2 * rn + err);
            const double want =
                Similarity(metric, query.data(), c.rows[i].data(), dim);
            EXPECT_LE(std::abs(scores[i] - want),
                      (dim + 4) * std::ldexp(scale, -24) + quant)
                << name << " dim " << dim << " row " << i << " metric "
                << static_cast<int>(metric);
          }
        }
      }
    }
  }
}

TEST(ScanKernelTest, DispatchPicksTheWidestVariant) {
  ScanBlocksFn want = &ScanBlocksScalar;
  const char* name = "scalar";
  if (CpuHasAvx2Fma()) {
    want = &ScanBlocksAvx2;
    name = "avx2+fma+f16c";
  }
  if (CpuHasAvx512()) {
    want = &ScanBlocksAvx512;
    name = "avx512f";
  }
  EXPECT_EQ(ScanBlocks(), want);
  EXPECT_STREQ(ScanBlocksName(), name);
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

// Rows the fp16 copy cannot hold well, mixed into a Gaussian corpus:
// rows of ~1e-6 components (fp16 subnormals, relative error up to a
// few percent), in the second corpus also rows with one component at
// 1e5 (beyond fp16 range, so the bound is infinite and every row is
// rescored), and in the third rows of ~1e-40 components (fp32
// subnormals: zero in fp16, and too short for an fp32 inverse norm).
// A query that short is among the queries. Both indexes must still
// equal the plain double scan.
TEST(ScanKernelTest, EdgeRowsMatchPlainDoubleScan) {
  const int dim = 32;
  for (int edge : {0, 1, 2}) {
    KernelCase c = MakeKernelCase(0, dim, 0);
    const auto gauss = RandomVectors(900, dim, 41);
    for (size_t i = 0; i < gauss.size(); ++i) {
      std::vector<float> row = gauss[i];
      if (i % 7 == 3) {
        for (float& x : row) x *= 1e-6f;
      }
      if (edge == 1 && i % 97 == 5) row[i % dim] = 1e5f;
      if (edge == 2 && i % 97 == 5) {
        for (float& x : row) x *= 1e-40f;
      }
      c.rows.push_back(row);
      c.labels.push_back((i * 7919) % 10007);
    }
    for (Metric metric : kMetrics) {
      BruteForceIndex exact(dim, metric);
      IvfIndex::Options opts;
      opts.num_lists = 8;
      opts.nprobe = 8;  // every list: exact
      IvfIndex ivf(dim, metric, opts);
      for (size_t i = 0; i < c.rows.size(); ++i) {
        exact.Add(c.labels[i], c.rows[i]);
        ivf.Add(c.labels[i], c.rows[i]);
      }
      exact.Build();
      ivf.Build();
      auto queries = KernelQueries(dim, 43);
      queries.push_back(c.rows[3]);  // an fp16-subnormal row
      queries.push_back(c.rows[5]);  // 1e5 or 1e-40 in the edge corpora
      queries.push_back(gauss[6]);
      for (float& x : queries.back()) x *= 1e-40f;
      for (const auto& query : queries) {
        for (size_t k : {size_t{1}, size_t{11}, size_t{50}}) {
          const auto want = ReferenceTopK(metric, c, query, k);
          const std::string what =
              "edge " + std::to_string(edge) + " metric " +
              std::to_string(static_cast<int>(metric)) + " k " +
              std::to_string(k);
          ExpectSameHits(exact.Search(query, k), want, "exact " + what);
          ExpectSameHits(ivf.Search(query, k), want, "ivf " + what);
        }
      }
    }
  }
}

TEST(TopKScanTest, SecondPassOnlyWhenTheBoundRequiresIt) {
  const int dim = 32;
  const auto rows = RandomVectors(2000, dim, 51);
  VectorMatrix m(dim);
  for (size_t i = 0; i < rows.size(); ++i) m.Add(i, rows[i].data());
  const auto query = RandomVectors(1, dim, 52)[0];
  TopKScan plain(Metric::kCosine, query, 10);
  plain.Scan(m);
  const auto hits = plain.Finish();
  EXPECT_FALSE(plain.second_pass());

  // One component beyond fp16 range: no bound, so every row is
  // rescored, and the answer is unchanged.
  std::vector<float> wide(dim, 0.0f);
  wide[0] = 1e5f;
  VectorMatrix far(dim);
  far.Add(rows.size(), wide.data());
  TopKScan rescored(Metric::kCosine, query, 10);
  rescored.Scan(m);
  rescored.Scan(far);
  const auto all = rescored.Finish();
  EXPECT_TRUE(rescored.second_pass());
  std::vector<Neighbor> want = hits;
  const double far_sim =
      Similarity(Metric::kCosine, query.data(), wide.data(), dim);
  want.push_back(Neighbor{rows.size(), far_sim});
  std::sort(want.begin(), want.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.label < b.label;
            });
  want.resize(10);
  ExpectSameHits(all, want, "with a 1e5 row");
}

}  // namespace
}  // namespace saga::ann
