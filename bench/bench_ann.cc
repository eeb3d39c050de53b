// M2: embedding-serving k-NN microbenchmarks — exact vs IVF recall/QPS
// trade-off (the §3.2 price/performance knob) and the float dot kernel.
//
// `--gate` runs only the exact-scan ratio gate instead: over the same
// 20k x 32 cosine corpus, BruteForceIndex::Search must be >= 4x faster
// than a plain double `Similarity` reference scan when the CPU has
// AVX2+FMA (so losing the kernel dispatch fails CI), no slower on the
// scalar path, and must return the reference's hits exactly. Exits
// non-zero on violation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "ann/scan_kernel.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace saga::ann {
namespace {

constexpr int kDim = 32;
constexpr size_t kCorpus = 20000;

std::vector<std::vector<float>> MakeCorpus() {
  Rng rng(11);
  std::vector<std::vector<float>> vecs(kCorpus, std::vector<float>(kDim));
  for (auto& v : vecs) {
    for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  }
  return vecs;
}

const std::vector<std::vector<float>>& Corpus() {
  static const auto& corpus = *new std::vector<std::vector<float>>(
      MakeCorpus());
  return corpus;
}

BruteForceIndex* ExactIndex() {
  static BruteForceIndex* index = [] {
    auto* idx = new BruteForceIndex(kDim, Metric::kCosine);
    const auto& corpus = Corpus();
    for (size_t i = 0; i < corpus.size(); ++i) idx->Add(i, corpus[i]);
    idx->Build();
    return idx;
  }();
  return index;
}

IvfIndex* ApproxIndex() {
  static IvfIndex* index = [] {
    IvfIndex::Options opts;
    opts.num_lists = 64;
    auto* idx = new IvfIndex(kDim, Metric::kCosine, opts);
    const auto& corpus = Corpus();
    for (size_t i = 0; i < corpus.size(); ++i) idx->Add(i, corpus[i]);
    idx->Build();
    return idx;
  }();
  return index;
}

std::vector<float> RandomQuery(Rng* rng) {
  std::vector<float> q(kDim);
  for (float& x : q) x = static_cast<float>(rng->NextGaussian());
  return q;
}

void BM_ExactSearch(benchmark::State& state) {
  auto* index = ExactIndex();
  Rng rng(21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSearch);

void BM_IvfSearch(benchmark::State& state) {
  auto* index = ApproxIndex();
  index->set_nprobe(static_cast<int>(state.range(0)));
  Rng rng(22);
  // Measure recall@10 alongside speed.
  double recall_sum = 0.0;
  int recall_queries = 0;
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomQuery(&rng);
    const auto truth = ExactIndex()->Search(query, 10);
    const auto approx = index->Search(query, 10);
    std::set<uint64_t> truth_set;
    for (const auto& h : truth) truth_set.insert(h.label);
    int hits = 0;
    for (const auto& h : approx) {
      if (truth_set.count(h.label)) ++hits;
    }
    recall_sum += hits / 10.0;
    ++recall_queries;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(RandomQuery(&rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["recall@10"] = recall_sum / recall_queries;
}
BENCHMARK(BM_IvfSearch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_FloatDot(benchmark::State& state) {
  Rng rng(24);
  const auto query = RandomQuery(&rng);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 1000; ++i) vecs.push_back(RandomQuery(&rng));
  size_t i = 0;
  for (auto _ : state) {
    const auto& v = vecs[i++ % vecs.size()];
    benchmark::DoNotOptimize(Dot(query.data(), v.data(), kDim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FloatDot);

// ---------- --gate ----------

constexpr size_t kGateK = 11;
constexpr int kGateQueries = 200;
constexpr int kGateReps = 5;
constexpr double kMinAvx2Speedup = 4.0;
constexpr double kMinScalarSpeedup = 1.0;

/// The pre-kernel exact scan: double `Similarity` on every row, best
/// first, ties by label.
std::vector<Neighbor> ReferenceScan(const std::vector<float>& query,
                                    size_t k) {
  std::vector<Neighbor> all;
  const auto& corpus = Corpus();
  all.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    all.push_back(Neighbor{
        i, Similarity(Metric::kCosine, query.data(), corpus[i].data(), kDim)});
  }
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.label < b.label;
                    });
  all.resize(k);
  return all;
}

/// Best-of-reps microseconds per query of `search` over `queries`.
template <typename Search>
double UsPerQuery(const std::vector<std::vector<float>>& queries,
                  Search&& search) {
  double best = 1e300;
  for (int rep = 0; rep < kGateReps; ++rep) {
    Stopwatch sw;
    for (const auto& q : queries) benchmark::DoNotOptimize(search(q));
    best = std::min(best, sw.ElapsedSeconds() * 1e6 / queries.size());
  }
  return best;
}

int RunGate() {
  Rng rng(31);
  std::vector<std::vector<float>> queries;
  for (int i = 0; i < kGateQueries; ++i) queries.push_back(RandomQuery(&rng));
  const BruteForceIndex* index = ExactIndex();

  int mismatches = 0;
  for (const auto& q : queries) {
    const auto got = index->Search(q, kGateK);
    const auto want = ReferenceScan(q, kGateK);
    const bool same = std::equal(
        got.begin(), got.end(), want.begin(), want.end(),
        [](const Neighbor& a, const Neighbor& b) {
          return a.label == b.label && a.similarity == b.similarity;
        });
    if (!same) ++mismatches;
  }
  const double ref_us = UsPerQuery(
      queries, [](const auto& q) { return ReferenceScan(q, kGateK); });
  const double index_us = UsPerQuery(
      queries, [&](const auto& q) { return index->Search(q, kGateK); });
  const double speedup = ref_us / index_us;
  const bool avx2 = CpuHasAvx2Fma();
  const double min_speedup = avx2 ? kMinAvx2Speedup : kMinScalarSpeedup;

  std::printf("exact scan, %zu x %d cosine, k=%zu, kernel %s\n", kCorpus, kDim,
              kGateK, ScoreBlockName());
  std::printf("  reference double scan  %10.1f us/query\n", ref_us);
  std::printf("  BruteForceIndex        %10.1f us/query\n", index_us);
  const bool speed_ok = speedup >= min_speedup;
  std::printf("gate speedup            %10.2f >= %5.2f  %s\n", speedup,
              min_speedup, speed_ok ? "PASS" : "FAIL");
  std::printf("gate queries mismatched %10d == 0      %s\n", mismatches,
              mismatches == 0 ? "PASS" : "FAIL");
  const bool ok = speed_ok && mismatches == 0;
  std::printf(ok ? "ann gate: OK\n" : "ann gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga::ann

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) return saga::ann::RunGate();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
