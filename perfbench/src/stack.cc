#include "stack.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/file_util.h"
#include "embedding/embedding_store.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void CheckOk(const saga::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 s.ToString().c_str());
    std::exit(2);
  }
}

/// The KG is this many times the generator's default entity counts.
constexpr int kKgScale = 10;

saga::kg::KgGeneratorConfig ScaledKgConfig(int scale) {
  saga::kg::KgGeneratorConfig c;
  c.num_persons *= scale;
  c.num_movies *= scale;
  c.num_songs *= scale;
  c.num_teams *= scale;
  c.num_bands *= scale;
  c.num_cities *= scale;
  c.num_countries *= scale;
  c.num_universities *= scale;
  // Occupations and genres are fixed vocabularies; scaling them would
  // only mint duplicate names.
  return c;
}

}  // namespace

saga::annotation::Annotator::Options LinkAnnotatorOptions() {
  saga::annotation::Annotator::Options o;
  o.preset = saga::annotation::DeploymentPreset::kAccurate;
  o.rerank_only_ambiguous = false;
  return o;
}

std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  *times = SetupTimes();

  auto t0 = Clock::now();
  stack->gen = saga::kg::GenerateKg(ScaledKgConfig(kKgScale));
  saga::graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  stack->view = saga::graph_engine::GraphView::Build(stack->gen.kg, def);
  times->kg_s = SecondsSince(t0);

  t0 = Clock::now();
  saga::embedding::TrainingConfig tc;
  tc.model = saga::embedding::ModelKind::kDistMult;
  tc.dim = 32;
  stack->emb = saga::embedding::InMemoryTrainer(tc).Train(stack->view);
  times->train_s = SecondsSince(t0);

  t0 = Clock::now();
  const saga::kg::KnowledgeGraph* g = &stack->gen.kg;
  saga::serving::EmbeddingService::Options eo;
  eo.index = saga::serving::EmbeddingService::IndexKind::kExact;
  stack->embeddings = std::make_unique<saga::serving::EmbeddingService>(
      saga::embedding::EmbeddingStore::FromTrained(stack->emb, stack->view), g,
      eo);
  saga::serving::RelatedEntitiesService::Options ro;
  ro.mode = saga::serving::RelatedEntitiesService::Mode::kPpr;
  stack->related = std::make_unique<saga::serving::RelatedEntitiesService>(
      g, &stack->view, stack->embeddings.get(), ro);
  stack->ranker = std::make_unique<saga::serving::FactRanker>(
      g, &stack->view, &stack->emb);
  stack->qa = std::make_unique<saga::annotation::QueryAnswerer>(
      g, stack->ranker.get());
  stack->admission = std::make_unique<saga::serving::AdmissionController>();
  // The view builds its adjacency lazily and without a lock; build it
  // here, before concurrent PPR calls read it.
  (void)stack->view.Adjacency();
  times->serving_s = SecondsSince(t0);

  if (!config.with_link) return stack;

  t0 = Clock::now();
  CheckOk(saga::RemoveDirRecursively(config.cache_dir), "clearing cache dir");
  auto cache =
      saga::serving::EmbeddingKvCache::Open(config.cache_dir, config.cache_bytes);
  CheckOk(cache.status(), "opening the profile cache");
  stack->cache = std::move(cache).value();
  stack->linker = std::make_unique<saga::annotation::Annotator>(
      g, stack->cache.get(), LinkAnnotatorOptions());
  CheckOk(stack->linker->reranker().PrecomputeProfiles(stack->cache.get()),
          "profile precompute");
  times->profiles_s = SecondsSince(t0);

  t0 = Clock::now();
  stack->corpus = saga::websim::GenerateCorpus(
      stack->gen, saga::websim::CorpusGeneratorConfig());
  times->corpus_s = SecondsSince(t0);
  return stack;
}

}  // namespace perfbench
