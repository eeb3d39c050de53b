// M3: Graph Query Engine microbenchmarks — view materialization +
// incremental maintenance, triple-pattern matching, traversal, PPR.
//
// `--gate` runs only the PPR push gate instead: over the same view,
// PprEngine::TopKRelated must be >= 2x faster than the hash-map
// forward push it replaced (kept below as the reference) and must
// return the reference's ranking exactly. Exits non-zero on violation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/metrics.h"
#include "graph_engine/ppr.h"
#include "graph_engine/query.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"

namespace saga::graph_engine {
namespace {

const kg::GeneratedKg& SharedKg() {
  static const kg::GeneratedKg& gen = *new kg::GeneratedKg([] {
    kg::KgGeneratorConfig config;
    config.num_persons = 2000;
    config.num_movies = 500;
    config.num_songs = 300;
    config.num_teams = 30;
    config.num_bands = 60;
    config.num_cities = 80;
    return kg::GenerateKg(config);
  }());
  return gen;
}

void BM_ViewBuild(benchmark::State& state) {
  const auto& gen = SharedKg();
  for (auto _ : state) {
    auto view = GraphView::Build(gen.kg, ViewDefinition());
    benchmark::DoNotOptimize(view.edges().size());
  }
  state.counters["edges"] = static_cast<double>(
      GraphView::Build(gen.kg, ViewDefinition()).edges().size());
}
BENCHMARK(BM_ViewBuild);

void BM_PatternMatchSP(benchmark::State& state) {
  const auto& gen = SharedKg();
  Rng rng(5);
  for (auto _ : state) {
    TriplePattern p;
    p.subject = kg::EntityId(rng.Uniform(gen.kg.num_entities()));
    p.predicate = gen.schema.occupation;
    benchmark::DoNotOptimize(Match(gen.kg, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternMatchSP);

void BM_PatternMatchPredicateScan(benchmark::State& state) {
  const auto& gen = SharedKg();
  for (auto _ : state) {
    TriplePattern p;
    p.predicate = gen.schema.acted_in;
    benchmark::DoNotOptimize(Match(gen.kg, p));
  }
}
BENCHMARK(BM_PatternMatchPredicateScan);

void BM_KHopNeighbors(benchmark::State& state) {
  const auto& gen = SharedKg();
  Rng rng(6);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KHopNeighbors(
        gen.kg, kg::EntityId(rng.Uniform(gen.kg.num_entities())), k, 5000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KHopNeighbors)->Arg(1)->Arg(2)->Arg(3);

void BM_Ppr(benchmark::State& state) {
  const auto& gen = SharedKg();
  static const GraphView& view =
      *new GraphView(GraphView::Build(gen.kg, ViewDefinition()));
  view.Adjacency();  // pre-build
  PprEngine ppr(&view);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppr.TopKRelated(
        static_cast<uint32_t>(rng.Uniform(view.num_entities())), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ppr);

void BM_RandomWalks(benchmark::State& state) {
  const auto& gen = SharedKg();
  static const GraphView& view =
      *new GraphView(GraphView::Build(gen.kg, ViewDefinition()));
  view.Adjacency();
  RandomWalkSampler::Options opts;
  opts.walks_per_node = 1;
  opts.walk_length = 8;
  RandomWalkSampler sampler(opts);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.GenerateWalks(view, &rng));
  }
  state.counters["nodes"] = static_cast<double>(view.num_entities());
}
BENCHMARK(BM_RandomWalks);

void BM_ViewApplyDelta(benchmark::State& state) {
  // Incremental maintenance cost per appended fact batch.
  kg::KgGeneratorConfig config;
  config.num_persons = 500;
  for (auto _ : state) {
    state.PauseTiming();
    kg::GeneratedKg gen = kg::GenerateKg(config);
    auto view = GraphView::Build(gen.kg, ViewDefinition());
    const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
    Rng rng(9);
    std::vector<kg::TripleIdx> delta;
    for (int i = 0; i < 1000; ++i) {
      delta.push_back(gen.kg.AddFact(
          kg::EntityId(rng.Uniform(gen.kg.num_entities())),
          gen.schema.spouse,
          kg::Value::Entity(kg::EntityId(rng.Uniform(gen.kg.num_entities()))),
          src));
    }
    state.ResumeTiming();
    view.ApplyDelta(gen.kg, delta);
    benchmark::DoNotOptimize(view.edges().size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ViewApplyDelta);

// ---------- --gate ----------

constexpr size_t kGateK = 168;  // the related service's PPR over-fetch
constexpr int kGateSources = 400;
constexpr int kGateReps = 5;
constexpr double kMinSpeedup = 2.0;

/// The pre-CSR forward push: residual, estimate and queued flags in
/// hash maps, a deque FIFO, then a full sort of the estimate map.
std::vector<std::pair<uint32_t, double>> ReferenceTopK(const GraphView& view,
                                                       uint32_t source,
                                                       size_t k) {
  const PprEngine::Options o;
  const auto& adj = view.Adjacency();
  std::unordered_map<uint32_t, double> p;
  std::unordered_map<uint32_t, double> r;
  r[source] = 1.0;
  std::deque<uint32_t> queue{source};
  std::unordered_map<uint32_t, bool> queued;
  queued[source] = true;
  size_t pushes = 0;
  while (!queue.empty() && pushes < o.max_pushes) {
    const uint32_t u = queue.front();
    queue.pop_front();
    queued[u] = false;
    const double ru = r[u];
    const size_t deg = adj[u].size();
    if (deg == 0) {
      p[u] += ru;
      r[u] = 0.0;
      continue;
    }
    if (ru / static_cast<double>(deg) < o.epsilon) continue;
    ++pushes;
    p[u] += o.alpha * ru;
    const double push = (1.0 - o.alpha) * ru / static_cast<double>(deg);
    r[u] = 0.0;
    for (uint32_t v : adj[u]) {
      r[v] += push;
      if (!queued[v] &&
          r[v] / std::max<size_t>(1, adj[v].size()) >= o.epsilon) {
        queue.push_back(v);
        queued[v] = true;
      }
    }
  }
  p.erase(source);
  std::vector<std::pair<uint32_t, double>> out(p.begin(), p.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

/// Best-of-reps microseconds per source of `topk` over `sources`.
template <typename TopK>
double UsPerSource(const std::vector<uint32_t>& sources, TopK&& topk) {
  double best = 1e300;
  for (int rep = 0; rep < kGateReps; ++rep) {
    Stopwatch sw;
    for (uint32_t s : sources) benchmark::DoNotOptimize(topk(s));
    best = std::min(best, sw.ElapsedSeconds() * 1e6 / sources.size());
  }
  return best;
}

int RunGate() {
  const GraphView view = GraphView::Build(SharedKg().kg, ViewDefinition());
  (void)view.Adjacency();
  const PprEngine ppr(&view);
  Rng rng(41);
  std::vector<uint32_t> sources;
  for (int i = 0; i < kGateSources; ++i) {
    sources.push_back(static_cast<uint32_t>(rng.Uniform(view.num_entities())));
  }

  int mismatches = 0;
  for (uint32_t s : sources) {
    if (ppr.TopKRelated(s, kGateK) != ReferenceTopK(view, s, kGateK)) {
      ++mismatches;
    }
  }
  const double ref_us = UsPerSource(
      sources, [&](uint32_t s) { return ReferenceTopK(view, s, kGateK); });
  const double ppr_us = UsPerSource(
      sources, [&](uint32_t s) { return ppr.TopKRelated(s, kGateK); });
  const double speedup = ref_us / ppr_us;

  std::printf("PPR TopKRelated, %zu nodes, k=%zu, %d sources\n",
              view.num_entities(), kGateK, kGateSources);
  std::printf("  hash-map reference     %10.1f us/source\n", ref_us);
  std::printf("  PprEngine              %10.1f us/source\n", ppr_us);
  const bool speed_ok = speedup >= kMinSpeedup;
  std::printf("gate speedup            %10.2f >= %5.2f  %s\n", speedup,
              kMinSpeedup, speed_ok ? "PASS" : "FAIL");
  std::printf("gate sources mismatched %10d == 0      %s\n", mismatches,
              mismatches == 0 ? "PASS" : "FAIL");
  const bool ok = speed_ok && mismatches == 0;
  std::printf(ok ? "ppr gate: OK\n" : "ppr gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga::graph_engine

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      return saga::graph_engine::RunGate();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
