// M2: embedding-serving k-NN microbenchmarks — exact vs IVF recall/QPS
// trade-off (the §3.2 price/performance knob) and the float dot kernel.
//
// `--gate` runs only the exact-scan ratio gate instead: over the same
// 20k x 32 cosine corpus, BruteForceIndex::Search must be >= 4x faster
// than a plain double `Similarity` reference scan when a SIMD scan
// kernel is dispatched (so losing the dispatch fails CI), no slower on
// the scalar path, and must return the reference's hits exactly. It
// also reports how often TopKScan needed its second pass, and writes
// everything to BENCH_ann.json at the repository root. Exits non-zero
// on violation.
//
// `--nprobe-sweep` (no gate) measures IVF recall@10 and us/query at
// nprobe 16/24/32/48/64 of 64 lists against the exact scan, on the
// served distribution: DistMult vectors trained as the serving
// benchmark's stack trains them (GenerateKg at 10x, dim 32, 10 epochs).
// It writes BENCH_ann_nprobe.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "ann/scan_kernel.h"
#include "ann/top_k_scan.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"

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
constexpr double kMinSimdSpeedup = 4.0;
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
  // The index's own scan, repeated on a copy of its matrix, to count
  // second passes.
  VectorMatrix matrix(kDim);
  for (size_t i = 0; i < Corpus().size(); ++i) {
    matrix.Add(i, Corpus()[i].data());
  }
  int second_passes = 0;
  for (const auto& q : queries) {
    TopKScan scan(Metric::kCosine, q, kGateK);
    scan.Scan(matrix);
    (void)scan.Finish();
    if (scan.second_pass()) ++second_passes;
  }
  const double second_pass_rate =
      static_cast<double>(second_passes) / queries.size();
  // fp16 blocks plus the padded inverse norms.
  const size_t padded_rows =
      (kCorpus + kScanBlockRows - 1) / kScanBlockRows * kScanBlockRows;
  const double scan_bytes =
      static_cast<double>(padded_rows) * (kDim * sizeof(uint16_t) + 4);

  const double ref_us = UsPerQuery(
      queries, [](const auto& q) { return ReferenceScan(q, kGateK); });
  const double index_us = UsPerQuery(
      queries, [&](const auto& q) { return index->Search(q, kGateK); });
  const double speedup = ref_us / index_us;
  const bool simd = ScanBlocks() != &ScanBlocksScalar;
  const double min_speedup = simd ? kMinSimdSpeedup : kMinScalarSpeedup;

  std::printf("exact scan, %zu x %d cosine, k=%zu, kernel %s\n", kCorpus, kDim,
              kGateK, ScanBlocksName());
  std::printf("  reference double scan  %10.1f us/query\n", ref_us);
  std::printf("  BruteForceIndex        %10.1f us/query\n", index_us);
  std::printf("  bytes scanned          %10.0f per query\n", scan_bytes);
  std::printf("  second passes          %10d of %d queries\n", second_passes,
              kGateQueries);
  const bool speed_ok = speedup >= min_speedup;
  std::printf("gate speedup            %10.2f >= %5.2f  %s\n", speedup,
              min_speedup, speed_ok ? "PASS" : "FAIL");
  std::printf("gate queries mismatched %10d == 0      %s\n", mismatches,
              mismatches == 0 ? "PASS" : "FAIL");

  bench::Report report("ann");
  report.Config("kernel", ScanBlocksName());
  report.Config("rows", static_cast<double>(kCorpus));
  report.Config("dim", kDim);
  report.Config("metric", "cosine");
  report.Config("k", static_cast<double>(kGateK));
  report.Config("queries", kGateQueries);
  report.Metric("scan_bytes_per_query", scan_bytes, "bytes");
  report.Metric("reference_us", ref_us, "us");
  report.Metric("index_us", index_us, "us");
  report.Metric("speedup", speedup, "x");
  report.Metric("mismatches", mismatches, "count");
  report.Metric("second_pass_rate", second_pass_rate, "fraction");
  report.Gate("speedup", speedup, ">=", min_speedup, speed_ok);
  report.Gate("mismatches", mismatches, "==", 0, mismatches == 0);
  const std::string path = report.Write(SAGA_REPO_ROOT);
  std::printf("wrote %s\n", path.empty() ? "nothing (write failed)"
                                          : path.c_str());
  const bool ok = report.passed() && !path.empty();
  std::printf(ok ? "ann gate: OK\n" : "ann gate: FAILED\n");
  return ok ? 0 : 1;
}

// ---------- --nprobe-sweep ----------

constexpr int kSweepLists = 64;
constexpr int kSweepQueries = 500;
constexpr size_t kSweepK = 10;

/// The serving benchmark's stack settings: the generator's default
/// entity counts times 10 (occupations and genres are fixed
/// vocabularies), a min-confidence 0.4 view, DistMult at dim 32.
std::vector<std::pair<uint64_t, std::vector<float>>> TrainedVectors() {
  constexpr int kScale = 10;
  kg::KgGeneratorConfig c;
  c.num_persons *= kScale;
  c.num_movies *= kScale;
  c.num_songs *= kScale;
  c.num_teams *= kScale;
  c.num_bands *= kScale;
  c.num_cities *= kScale;
  c.num_countries *= kScale;
  c.num_universities *= kScale;
  const kg::GeneratedKg gen = kg::GenerateKg(c);
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  const auto view = graph_engine::GraphView::Build(gen.kg, def);
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = kDim;
  const auto store = embedding::EmbeddingStore::FromTrained(
      embedding::InMemoryTrainer(tc).Train(view), view);
  std::vector<std::pair<uint64_t, std::vector<float>>> out;
  for (kg::EntityId id : store.Ids()) out.emplace_back(id.value(), *store.Get(id));
  return out;
}

/// The k nearest labels other than `self`, as TopKNeighbors serves them.
std::vector<uint64_t> Neighbors(const VectorIndex& index,
                                const std::vector<float>& query,
                                uint64_t self) {
  std::vector<uint64_t> out;
  for (const Neighbor& n : index.Search(query, kSweepK + 1)) {
    if (n.label != self && out.size() < kSweepK) out.push_back(n.label);
  }
  return out;
}

int RunNprobeSweep() {
  Stopwatch setup;
  const auto vectors = TrainedVectors();
  BruteForceIndex exact(kDim, Metric::kCosine);
  IvfIndex::Options opts;
  opts.num_lists = kSweepLists;
  IvfIndex ivf(kDim, Metric::kCosine, opts);
  for (const auto& [label, v] : vectors) {
    exact.Add(label, v);
    ivf.Add(label, v);
  }
  exact.Build();
  ivf.Build();
  std::printf("trained %zu x %d DistMult vectors in %.1f s\n", vectors.size(),
              kDim, setup.ElapsedSeconds());

  Rng rng(61);
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(vectors.size(), kSweepQueries);
  std::vector<std::vector<float>> queries;
  std::vector<std::set<uint64_t>> truth;
  for (size_t i : picks) {
    queries.push_back(vectors[i].second);
    const auto t = Neighbors(exact, vectors[i].second, vectors[i].first);
    truth.emplace_back(t.begin(), t.end());
  }
  const double exact_us = UsPerQuery(
      queries, [&](const auto& q) { return exact.Search(q, kSweepK + 1); });

  bench::Report report("ann_nprobe");
  report.Config("kernel", ScanBlocksName());
  report.Config("rows", static_cast<double>(vectors.size()));
  report.Config("dim", kDim);
  report.Config("lists", kSweepLists);
  report.Config("queries", kSweepQueries);
  report.Metric("exact_us", exact_us, "us");
  bench::Table table({"index", "nprobe", "recall@10", "us/query", "vs exact"});
  table.AddRow({"exact", "-", "1.000", bench::Fmt(exact_us, 1), "1.00x"});
  for (int nprobe : {16, 24, 32, 48, 64}) {
    ivf.set_nprobe(nprobe);
    double hits = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      for (uint64_t label :
           Neighbors(ivf, queries[q], vectors[picks[q]].first)) {
        hits += truth[q].count(label);
      }
    }
    const double recall = hits / (kSweepK * queries.size());
    const double us = UsPerQuery(
        queries, [&](const auto& q) { return ivf.Search(q, kSweepK + 1); });
    table.AddRow({"ivf", std::to_string(nprobe), bench::Fmt(recall),
                  bench::Fmt(us, 1), bench::Fmt(exact_us / us, 2) + "x"});
    const std::string key = "nprobe" + std::to_string(nprobe);
    report.Metric(key + "_recall_at_10", recall, "fraction");
    report.Metric(key + "_us", us, "us");
  }
  table.Print();
  const std::string path = report.Write(SAGA_REPO_ROOT);
  std::printf("wrote %s\n", path.empty() ? "nothing (write failed)"
                                          : path.c_str());
  return path.empty() ? 1 : 0;
}

}  // namespace
}  // namespace saga::ann

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) return saga::ann::RunGate();
    if (std::strcmp(argv[i], "--nprobe-sweep") == 0) {
      return saga::ann::RunNprobeSweep();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
