// F4: web-scale semantic annotation (Figure 4) — throughput/latency per
// deployment preset (the price/performance curve of §3.2), cached vs
// on-the-fly reranker profiles, and incremental vs full re-annotation
// under varying Web churn (§3.1 "rate of change").
//
// `--gate` runs only the annotation hot-path gate instead: cached
// accurate-preset Annotate must match, span, entity and score bits, an
// in-bench copy of the path it replaced (a Tokenize-based embed of each
// mention's own context window, each profile copied under a lock and
// decoded float by float) and be >= 1.5x faster. Exits non-zero on
// violation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_map>

#include "annotation/annotator.h"
#include "annotation/web_linker.h"
#include "bench_util.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/serialization.h"
#include "kg/kg_generator.h"
#include "serving/kv_cache.h"
#include "text/tokenizer.h"
#include "websim/corpus_generator.h"

namespace saga {
namespace {

using bench::Fmt;
using bench::Samples;
using bench::Section;
using bench::Table;

struct Env {
  kg::GeneratedKg gen;
  websim::WebCorpus corpus;
};

Env MakeEnv() {
  kg::KgGeneratorConfig config;
  config.num_persons = 700;
  config.num_movies = 150;
  config.num_songs = 100;
  config.num_teams = 16;
  config.num_bands = 30;
  config.num_cities = 40;
  config.ambiguous_name_fraction = 0.1;
  Env env{kg::GenerateKg(config), {}};
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 250;
  cc.num_noise_pages = 100;
  env.corpus = websim::GenerateCorpus(env.gen, cc);
  return env;
}

struct Quality {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
};

Quality Score(const Env& env, const annotation::Annotator& annotator,
              Samples* latency_ms, size_t max_docs) {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  for (websim::DocId id = 0;
       id < std::min<size_t>(env.corpus.size(), max_docs); ++id) {
    const auto& doc = env.corpus.doc(id);
    Stopwatch sw;
    const auto annotations = annotator.Annotate(doc.body);
    latency_ms->Add(sw.ElapsedMillis());
    std::set<std::tuple<size_t, size_t, uint64_t>> predicted;
    for (const auto& a : annotations) {
      predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
    }
    std::set<std::tuple<size_t, size_t, uint64_t>> gold;
    for (const auto& g : doc.gold_mentions) {
      gold.insert({g.begin, g.end, g.entity.value()});
    }
    for (const auto& p : predicted) {
      if (gold.count(p)) ++tp;
      else ++fp;
    }
    for (const auto& g : gold) {
      if (!predicted.count(g)) ++fn;
    }
  }
  Quality q;
  q.precision = tp + fp == 0 ? 0 : 1.0 * tp / (tp + fp);
  q.recall = tp + fn == 0 ? 0 : 1.0 * tp / (tp + fn);
  q.f1 = q.precision + q.recall == 0
             ? 0
             : 2 * q.precision * q.recall / (q.precision + q.recall);
  return q;
}

void BenchPricePerformance(const Env& env) {
  Section("F4a: deployment presets — the price/performance curve");
  // Cost model: $ per 1M docs proportional to measured CPU time at a
  // fixed $/core-hour.
  constexpr double kDollarsPerCoreHour = 3.0;
  struct Row {
    const char* name;
    annotation::DeploymentPreset preset;
  };
  const Row rows[] = {
      {"fast", annotation::DeploymentPreset::kFast},
      {"balanced", annotation::DeploymentPreset::kBalanced},
      {"accurate", annotation::DeploymentPreset::kAccurate}};
  Table table({"deployment", "precision", "recall", "F1", "docs/s",
               "p50 ms", "p99 ms", "$ / 1M docs"});
  for (const auto& row : rows) {
    annotation::Annotator::Options opts;
    opts.preset = row.preset;
    annotation::Annotator annotator(&env.gen.kg, nullptr, opts);
    Samples latency;
    Stopwatch sw;
    const Quality q = Score(env, annotator, &latency, 400);
    const double elapsed = sw.ElapsedSeconds();
    const double docs_per_s = latency.count() / elapsed;
    const double dollars_per_million =
        (1e6 / docs_per_s) / 3600.0 * kDollarsPerCoreHour;
    table.AddRow({row.name, Fmt(q.precision), Fmt(q.recall), Fmt(q.f1),
                  Fmt(docs_per_s, 1), Fmt(latency.Percentile(50), 3),
                  Fmt(latency.Percentile(99), 3),
                  Fmt(dollars_per_million, 2)});
  }
  table.Print();
  std::printf("Expected shape: quality rises fast->accurate while docs/s "
              "falls; the knee of the curve is the 'balanced' preset.\n");
}

void BenchCachedProfiles(const Env& env) {
  Section("F4b: precomputed cached embeddings vs on-the-fly (§3.2)");
  Table table({"reranker profiles", "docs/s", "speedup"});

  annotation::Annotator::Options opts;
  opts.preset = annotation::DeploymentPreset::kAccurate;
  opts.rerank_only_ambiguous = false;  // stress the reranker

  // One untimed pass per side first, so the timed pass measures
  // steady-state reranking rather than first reads of each profile.
  auto warm_up = [&env](const annotation::Annotator& annotator) {
    Samples ignored;
    (void)Score(env, annotator, &ignored, 150);
  };
  double fly_docs_per_s = 0.0;
  {
    annotation::Annotator annotator(&env.gen.kg, nullptr, opts);
    warm_up(annotator);
    Samples latency;
    Stopwatch sw;
    (void)Score(env, annotator, &latency, 150);
    fly_docs_per_s = latency.count() / sw.ElapsedSeconds();
    table.AddRow({"computed on the fly", Fmt(fly_docs_per_s, 1), "1.0x"});
  }
  {
    auto dir = MakeTempDir("bench_profile_cache");
    auto cache = serving::EmbeddingKvCache::Open(*dir, 8 << 20);
    annotation::Annotator annotator(&env.gen.kg, cache->get(), opts);
    Stopwatch precompute;
    (void)annotator.reranker().PrecomputeProfiles(cache->get());
    const double precompute_s = precompute.ElapsedSeconds();
    warm_up(annotator);
    Samples latency;
    Stopwatch sw;
    (void)Score(env, annotator, &latency, 150);
    const double cached_docs_per_s = latency.count() / sw.ElapsedSeconds();
    table.AddRow({"cached in KV store (precompute " +
                      Fmt(precompute_s, 2) + "s)",
                  Fmt(cached_docs_per_s, 1),
                  Fmt(cached_docs_per_s / fly_docs_per_s, 2) + "x"});
    (void)RemoveDirRecursively(*dir);
  }
  table.Print();
}

void BenchIncremental(Env env) {
  Section("F4c: incremental re-annotation under Web churn (§3.1)");
  annotation::Annotator annotator(&env.gen.kg, nullptr);
  annotation::IncrementalWebLinker linker(&annotator, &env.gen.kg);
  Stopwatch sw;
  (void)linker.AnnotateCorpus(env.corpus);
  const double full_s = sw.ElapsedSeconds();
  std::printf("initial full pass: %zu docs in %.2fs\n", env.corpus.size(),
              full_s);

  Table table({"churn", "docs re-annotated", "incremental s", "full-pass s",
               "speedup"});
  Rng rng(9);
  for (double churn : {0.01, 0.05, 0.10, 0.25, 0.50}) {
    const auto changed = websim::MutateCorpus(&env.corpus, churn, &rng);
    sw.Reset();
    const auto stats = linker.AnnotateCorpus(env.corpus);
    const double incr_s = sw.ElapsedSeconds();
    // Full-pass reference: a fresh linker re-annotates everything.
    annotation::Annotator fresh_annotator(&env.gen.kg, nullptr);
    annotation::IncrementalWebLinker fresh(&fresh_annotator, &env.gen.kg);
    sw.Reset();
    (void)fresh.AnnotateCorpus(env.corpus);
    const double full_again_s = sw.ElapsedSeconds();
    table.AddRow({Fmt(churn * 100, 0) + "%",
                  std::to_string(stats.docs_annotated), Fmt(incr_s, 3),
                  Fmt(full_again_s, 3),
                  Fmt(full_again_s / std::max(incr_s, 1e-9), 1) + "x"});
    (void)changed;
  }
  table.Print();
  std::printf("Expected shape: incremental cost scales with churn, not "
              "corpus size; speedup ~ 1/churn.\n");
}

// ---------- --gate ----------

constexpr int kGateReps = 7;
constexpr double kMinSpeedup = 1.5;

/// The Embed the one-pass vectorizer replaced: Tokenize, then a
/// std::string per token and per bigram. The reranker's vectorizer is
/// never FitDf'd, so every token weighs 1.
std::vector<float> ReferenceEmbed(std::string_view text,
                                  const text::HashingVectorizer::Options& o) {
  std::vector<float> vec(o.dim, 0.0f);
  auto add = [&](std::string_view token, double weight) {
    const uint64_t h = Hash64(token);
    const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
    vec[static_cast<uint32_t>(h % static_cast<uint32_t>(o.dim))] +=
        static_cast<float>(sign * weight);
  };
  const std::vector<text::Token> tokens = text::Tokenize(text);
  for (size_t i = 0; i < tokens.size(); ++i) {
    add(tokens[i].text, 1.0);
    if (o.use_bigrams && i + 1 < tokens.size()) {
      add(tokens[i].text + "_" + tokens[i + 1].text, 0.5);
    }
  }
  double norm_sq = 0.0;
  for (float v : vec) norm_sq += static_cast<double>(v) * v;
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& v : vec) v *= inv;
  }
  return vec;
}

/// The replaced memory-tier hit: copy the resident bytes under the
/// lock, then decode them float by float.
class ReferenceProfiles {
 public:
  void Add(kg::EntityId id, const std::vector<float>& vec) {
    BinaryWriter w(&bytes_[id.value()]);
    w.PutFloatVector(vec);
  }

  std::vector<float> Get(kg::EntityId id) const {
    std::string bytes;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bytes = bytes_.at(id.value());
    }
    BinaryReader r(bytes);
    uint64_t n = 0;
    (void)r.GetVarint64(&n);
    std::vector<float> vec(n);
    for (uint64_t i = 0; i < n; ++i) (void)r.GetFloat(&vec[i]);
    return vec;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::string> bytes_;
};

/// Accurate-preset Annotate (every mention reranked) as it ran before:
/// each mention copies and embeds its own context window, and every
/// candidate profile is copied and decoded per float.
std::vector<annotation::Annotation> ReferenceAnnotate(
    std::string_view text, const annotation::MentionDetector& detector,
    const annotation::CandidateGenerator& candidates,
    const ReferenceProfiles& profiles) {
  const annotation::ContextReranker::Options ro;
  const text::HashingVectorizer::Options vo;
  std::vector<annotation::Annotation> out;
  for (const annotation::Mention& m : detector.Detect(text)) {
    const std::vector<annotation::Candidate> cands =
        candidates.Candidates(m.surface);
    if (cands.empty()) continue;
    const size_t begin =
        m.begin > ro.context_window ? m.begin - ro.context_window : 0;
    const size_t end = std::min(text.size(), m.end + ro.context_window);
    const std::vector<float> context =
        ReferenceEmbed(std::string(text.substr(begin, end - begin)), vo);
    std::vector<std::pair<double, kg::EntityId>> scored;
    for (const annotation::Candidate& c : cands) {
      const double sim =
          text::HashingVectorizer::Cosine(context, profiles.Get(c.entity));
      scored.emplace_back(ro.context_weight * sim + ro.prior_weight * c.prior,
                          c.entity);
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    annotation::Annotation a;
    a.mention = m;
    a.entity = scored[0].second;
    a.score = scored[0].first;
    if (a.score < annotation::Annotator::Options().min_score) continue;
    out.push_back(std::move(a));
  }
  return out;
}

bool SameAnnotations(const std::vector<annotation::Annotation>& a,
                     const std::vector<annotation::Annotation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mention.begin != b[i].mention.begin ||
        a[i].mention.end != b[i].mention.end || a[i].entity != b[i].entity ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Best-of-reps microseconds per document of `reference` and of
/// `annotate` over `docs`. The two run alternately within each rep, so
/// a host that drifts in speed slows both alike.
template <typename Reference, typename Annotate>
std::pair<double, double> UsPerDoc(const std::vector<std::string_view>& docs,
                                   Reference&& reference,
                                   Annotate&& annotate) {
  double best_ref = 1e300;
  double best_new = 1e300;
  for (int rep = 0; rep < kGateReps; ++rep) {
    Stopwatch sw;
    for (std::string_view doc : docs) benchmark::DoNotOptimize(reference(doc));
    best_ref = std::min(best_ref, sw.ElapsedSeconds() * 1e6 / docs.size());
    sw.Reset();
    for (std::string_view doc : docs) benchmark::DoNotOptimize(annotate(doc));
    best_new = std::min(best_new, sw.ElapsedSeconds() * 1e6 / docs.size());
  }
  return {best_ref, best_new};
}

/// Times accurate-preset Annotate through the profile cache (every
/// profile memory-resident, so both sides time the memory tier) against
/// ReferenceAnnotate over the F4 corpus. Fails on any annotation that
/// differs (span, entity, score bits) or a speedup under kMinSpeedup.
int RunGate() {
  const Env env = MakeEnv();
  auto dir = MakeTempDir("bench_fig4_gate");
  auto cache = serving::EmbeddingKvCache::Open(*dir, 256 << 20);
  if (!dir.ok() || !cache.ok()) {
    std::printf("annotation gate: cannot open the profile cache\n");
    return 1;
  }
  annotation::Annotator::Options opts;
  opts.preset = annotation::DeploymentPreset::kAccurate;
  opts.rerank_only_ambiguous = false;
  const annotation::Annotator annotator(&env.gen.kg, cache->get(), opts);
  const annotation::ContextReranker& reranker = annotator.reranker();
  (void)reranker.PrecomputeProfiles(cache->get());
  ReferenceProfiles profiles;
  for (const auto& rec : env.gen.kg.catalog().records()) {
    profiles.Add(rec.id,
                 reranker.vectorizer().Embed(reranker.EntityProfileText(rec.id)));
  }
  const annotation::MentionDetector detector(&env.gen.kg.catalog());
  const annotation::CandidateGenerator candidates(&env.gen.kg.catalog());
  std::vector<std::string_view> docs;
  for (websim::DocId id = 0; id < env.corpus.size(); ++id) {
    docs.push_back(env.corpus.doc(id).body);
  }
  // Warm the memory tier so the timed passes read only resident bytes.
  for (std::string_view doc : docs) (void)annotator.Annotate(doc);

  int mismatches = 0;
  size_t annotations = 0;
  for (std::string_view doc : docs) {
    const auto got = annotator.Annotate(doc);
    annotations += got.size();
    if (!SameAnnotations(
            got, ReferenceAnnotate(doc, detector, candidates, profiles))) {
      ++mismatches;
    }
  }
  const auto [ref_us, new_us] = UsPerDoc(
      docs,
      [&](std::string_view doc) {
        return ReferenceAnnotate(doc, detector, candidates, profiles);
      },
      [&](std::string_view doc) { return annotator.Annotate(doc); });
  const double speedup = ref_us / new_us;
  const auto stats = (*cache)->stats();

  std::printf("accurate-preset Annotate, %zu entities, %zu docs, "
              "%zu annotations\n",
              env.gen.kg.num_entities(), docs.size(), annotations);
  std::printf("  cache memory/disk/miss %llu/%llu/%llu\n",
              static_cast<unsigned long long>(stats.memory_hits),
              static_cast<unsigned long long>(stats.disk_hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("  copy + per-float reference %8.1f us/doc\n", ref_us);
  std::printf("  Annotator                  %8.1f us/doc\n", new_us);
  const bool speed_ok = speedup >= kMinSpeedup;
  std::printf("gate speedup            %10.2f >= %5.2f  %s\n", speedup,
              kMinSpeedup, speed_ok ? "PASS" : "FAIL");
  std::printf("gate docs mismatched    %10d == 0      %s\n", mismatches,
              mismatches == 0 ? "PASS" : "FAIL");
  (void)RemoveDirRecursively(*dir);
  const bool ok = speed_ok && mismatches == 0;
  std::printf(ok ? "annotation gate: OK\n" : "annotation gate: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace saga

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) return saga::RunGate();
  }
  saga::bench::ObsSession obs_session;
  std::printf("F4: web-scale semantic annotation (paper Figure 4)\n");
  saga::Env env = saga::MakeEnv();
  std::printf("KG: %zu entities; corpus: %zu docs\n",
              env.gen.kg.num_entities(), env.corpus.size());
  saga::BenchPricePerformance(env);
  saga::BenchCachedProfiles(env);
  saga::BenchIncremental(std::move(env));
  return 0;
}
