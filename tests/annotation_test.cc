#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "annotation/annotator.h"
#include "annotation/candidate_generator.h"
#include "annotation/context_reranker.h"
#include "annotation/mention_detector.h"
#include "annotation/web_linker.h"
#include "common/file_util.h"
#include "kg/kg_generator.h"
#include "websim/corpus_generator.h"

namespace saga::annotation {
namespace {

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  config.num_movies = 30;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  config.ambiguous_name_fraction = 0.12;
  return kg::GenerateKg(config);
}

// ---------- MentionDetector ----------

TEST(MentionDetectorTest, FindsKnownAliases) {
  kg::GeneratedKg gen = MakeKg();
  MentionDetector detector(&gen.kg.catalog());
  const std::string& name = gen.kg.catalog().name(
      gen.kg.catalog().records().back().id);
  const std::string text = "Yesterday " + name + " appeared in public.";
  const auto mentions = detector.Detect(text);
  ASSERT_FALSE(mentions.empty());
  bool found = false;
  for (const Mention& m : mentions) {
    if (m.surface == name) found = true;
    EXPECT_EQ(text.substr(m.begin, m.end - m.begin), m.surface);
  }
  EXPECT_TRUE(found);
}

TEST(MentionDetectorTest, RespectsWordBoundaries) {
  kg::EntityCatalog cat;
  cat.AddEntity("Ann", {});
  MentionDetector detector(&cat);
  EXPECT_TRUE(detector.Detect("Annotations and bananas").empty());
  EXPECT_EQ(detector.Detect("I met Ann today").size(), 1u);
  EXPECT_EQ(detector.Detect("Ann, hello!").size(), 1u);
}

TEST(MentionDetectorTest, LongestMatchWinsOnOverlap) {
  kg::EntityCatalog cat;
  cat.AddEntity("New York", {});
  cat.AddEntity("York", {});
  MentionDetector detector(&cat);
  const auto mentions = detector.Detect("Flying to New York tomorrow");
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].surface, "New York");
}

TEST(MentionDetectorTest, CaseInsensitive) {
  kg::EntityCatalog cat;
  cat.AddEntity("Michael Jordan", {});
  MentionDetector detector(&cat);
  EXPECT_EQ(detector.Detect("MICHAEL JORDAN highlights").size(), 1u);
  EXPECT_EQ(detector.Detect("michael jordan highlights").size(), 1u);
}

TEST(MentionDetectorTest, MinSurfaceLengthFiltersShortAliases) {
  kg::EntityCatalog cat;
  cat.AddEntity("Al", {});
  cat.AddEntity("Albert", {});
  MentionDetector::Options opts;
  opts.min_surface_length = 3;
  MentionDetector detector(&cat, opts);
  EXPECT_TRUE(detector.Detect("Al went home").empty());
  EXPECT_EQ(detector.Detect("Albert went home").size(), 1u);
}

TEST(MentionDetectorTest, MentionsComeInReadingOrder) {
  kg::EntityCatalog cat;
  cat.AddEntity("Alice Cooper", {});
  cat.AddEntity("Bob Dylan", {});
  MentionDetector detector(&cat);
  const auto mentions =
      detector.Detect("Bob Dylan met Alice Cooper backstage");
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].surface, "Bob Dylan");
  EXPECT_EQ(mentions[1].surface, "Alice Cooper");
  EXPECT_LT(mentions[0].begin, mentions[1].begin);
}

// ---------- CandidateGenerator ----------

TEST(CandidateGeneratorTest, PriorsSumToOneAndSort) {
  kg::EntityCatalog cat;
  kg::EntityId popular = cat.AddEntity("Michael Jordan", {}, 0.9);
  kg::EntityId obscure = cat.AddEntity("Michael Jordan", {}, 0.05);
  CandidateGenerator gen(&cat);
  const auto cands = gen.Candidates("michael jordan");
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].entity, popular);
  EXPECT_EQ(cands[1].entity, obscure);
  EXPECT_NEAR(cands[0].prior + cands[1].prior, 1.0, 1e-9);
  EXPECT_GT(cands[0].prior, cands[1].prior);
  EXPECT_TRUE(gen.Candidates("nobody knows").empty());
}

// ---------- ContextReranker ----------

TEST(ContextRerankerTest, ProfileMentionsGraphNeighborhood) {
  kg::GeneratedKg gen = MakeKg();
  ContextReranker reranker(&gen.kg);
  // An athlete's profile should contain their team's name.
  for (const auto& rec : gen.kg.catalog().records()) {
    const auto teams = gen.kg.ObjectsOf(rec.id, gen.schema.plays_for);
    if (teams.empty() || !teams[0].is_entity()) continue;
    const std::string profile = reranker.EntityProfileText(rec.id);
    EXPECT_NE(profile.find(gen.kg.catalog().name(teams[0].entity())),
              std::string::npos);
    break;
  }
}

TEST(ContextRerankerTest, DisambiguatesByContext) {
  // Two "Michael Jordan"s: a basketball player and a professor.
  kg::KnowledgeGraph kg;
  kg::SchemaHandles h = kg::InstallStandardSchema(&kg);
  const kg::SourceId src = kg.AddSource("test", 1.0);
  kg::EntityId player = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.athlete}, 0.9, "basketball legend");
  kg::EntityId professor = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.professor}, 0.3,
      "machine learning professor");
  kg::EntityId team =
      kg.catalog().AddEntity("Riverfield Bulls", {h.sports_team}, 0.5);
  kg::EntityId university = kg.catalog().AddEntity(
      "University of Brookdale", {h.university}, 0.4);
  kg.AddFact(player, h.plays_for, kg::Value::Entity(team), src);
  kg.AddFact(professor, h.works_at, kg::Value::Entity(university), src);

  ContextReranker reranker(&kg);
  CandidateGenerator cands(&kg.catalog());
  const auto candidates = cands.Candidates("michael jordan");
  ASSERT_EQ(candidates.size(), 2u);

  const std::string sports_text =
      "Michael Jordan scored 40 points as the Riverfield Bulls won the "
      "basketball game last night.";
  Mention m1{0, 14, "Michael Jordan"};
  const auto sports_ranked =
      reranker.Rerank(candidates, sports_text, m1, nullptr);
  EXPECT_EQ(sports_ranked[0].candidate.entity, player);

  const std::string academic_text =
      "Michael Jordan advised several students at the University of "
      "Brookdale machine learning professor lab.";
  const auto academic_ranked =
      reranker.Rerank(candidates, academic_text, m1, nullptr);
  EXPECT_EQ(academic_ranked[0].candidate.entity, professor);
}

TEST(ContextRerankerTest, CachedProfilesMatchOnTheFly) {
  kg::GeneratedKg gen = MakeKg();
  ContextReranker reranker(&gen.kg);
  auto dir = MakeTempDir("saga_profile_cache");
  ASSERT_TRUE(dir.ok());
  auto cache = serving::EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(reranker.PrecomputeProfiles(cache->get()).ok());

  CandidateGenerator cands(&gen.kg.catalog());
  const auto& any_group = gen.ambiguous_groups.empty()
                              ? std::vector<kg::EntityId>{kg::EntityId(0)}
                              : gen.ambiguous_groups[0];
  const std::string name = gen.kg.catalog().name(any_group[0]);
  const auto candidates = cands.Candidates(name);
  const std::string text = name + " was in the news today.";
  Mention m{0, name.size(), name};
  const auto cached = reranker.Rerank(candidates, text, m, cache->get());
  const auto fresh = reranker.Rerank(candidates, text, m, nullptr);
  ASSERT_EQ(cached.size(), fresh.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].candidate.entity, fresh[i].candidate.entity);
    EXPECT_NEAR(cached[i].score, fresh[i].score, 1e-6);
  }
  (void)RemoveDirRecursively(*dir);
}

// ProfileVector embeds the profile's pieces without joining them; what
// PrecomputeProfiles caches must be the embedding of the joined
// EntityProfileText, bit for bit, for the full and the name-only profile.
TEST(ContextRerankerTest, PrecomputedProfilesEqualEmbedOfProfileText) {
  kg::GeneratedKg gen = MakeKg();
  for (bool name_only : {false, true}) {
    ContextReranker::Options opts;
    opts.name_only_profiles = name_only;
    ContextReranker reranker(&gen.kg, opts);
    auto dir = MakeTempDir("saga_profile_bits");
    ASSERT_TRUE(dir.ok());
    auto cache = serving::EmbeddingKvCache::Open(*dir, 1 << 16);
    ASSERT_TRUE(cache.ok());
    ASSERT_TRUE(reranker.PrecomputeProfiles(cache->get()).ok());
    for (const auto& rec : gen.kg.catalog().records()) {
      auto cached = (*cache)->Get(rec.id);
      ASSERT_TRUE(cached.ok()) << rec.id.value();
      const std::vector<float> want =
          reranker.vectorizer().Embed(reranker.EntityProfileText(rec.id));
      ASSERT_EQ(cached->size(), want.size());
      ASSERT_EQ(std::memcmp(cached->data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "entity " << rec.id.value() << " name_only=" << name_only;
    }
    (void)RemoveDirRecursively(*dir);
  }
}

// ---------- Annotator end-to-end ----------

struct AnnotationQuality {
  double precision = 0.0;
  double recall = 0.0;
};

AnnotationQuality Evaluate(const websim::WebCorpus& corpus,
                           const Annotator& annotator, size_t max_docs) {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  for (websim::DocId id = 0; id < std::min(corpus.size(), max_docs); ++id) {
    const websim::WebDocument& doc = corpus.doc(id);
    const auto annotations = annotator.Annotate(doc.body);
    std::set<std::tuple<size_t, size_t, uint64_t>> gold;
    for (const auto& g : doc.gold_mentions) {
      gold.insert({g.begin, g.end, g.entity.value()});
    }
    std::set<std::tuple<size_t, size_t, uint64_t>> predicted;
    for (const auto& a : annotations) {
      predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
    }
    for (const auto& p : predicted) {
      if (gold.count(p)) ++tp;
      else ++fp;
    }
    for (const auto& g : gold) {
      if (!predicted.count(g)) ++fn;
    }
  }
  AnnotationQuality q;
  q.precision = tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
  q.recall = tp + fn == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn);
  return q;
}

TEST(AnnotatorTest, AccuratePresetHasHighQuality) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 40;
  cc.num_noise_pages = 20;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  const AnnotationQuality q = Evaluate(corpus, annotator, 120);
  EXPECT_GT(q.precision, 0.85);
  EXPECT_GT(q.recall, 0.75);
}

TEST(AnnotatorTest, AccurateBeatsFastOnAmbiguousMentions) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 30;
  cc.num_noise_pages = 10;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);

  Annotator::Options fast_opts;
  fast_opts.preset = DeploymentPreset::kFast;
  Annotator fast(&gen.kg, nullptr, fast_opts);
  Annotator accurate(&gen.kg, nullptr);

  // Restrict scoring to gold mentions of ambiguous entities.
  std::set<uint64_t> ambiguous;
  for (const auto& group : gen.ambiguous_groups) {
    for (kg::EntityId e : group) ambiguous.insert(e.value());
  }
  ASSERT_FALSE(ambiguous.empty());

  auto accuracy_on_ambiguous = [&](const Annotator& annotator) {
    size_t correct = 0;
    size_t total = 0;
    for (websim::DocId id = 0; id < corpus.size(); ++id) {
      const websim::WebDocument& doc = corpus.doc(id);
      bool has_ambiguous = false;
      for (const auto& g : doc.gold_mentions) {
        if (ambiguous.count(g.entity.value())) has_ambiguous = true;
      }
      if (!has_ambiguous) continue;
      const auto annotations = annotator.Annotate(doc.body);
      for (const auto& g : doc.gold_mentions) {
        if (!ambiguous.count(g.entity.value())) continue;
        ++total;
        for (const auto& a : annotations) {
          if (a.mention.begin == g.begin && a.mention.end == g.end) {
            if (a.entity == g.entity) ++correct;
            break;
          }
        }
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(correct) / total;
  };

  const double fast_acc = accuracy_on_ambiguous(fast);
  const double accurate_acc = accuracy_on_ambiguous(accurate);
  EXPECT_GE(accurate_acc, fast_acc);
  EXPECT_GT(accurate_acc, 0.6);
}

// Annotate embeds each distinct context window once and reuses it for
// the next mention when the window is unchanged. On documents longer
// than two windows most mentions see different windows; the result
// must still equal reranking every mention on its own.
TEST(AnnotatorTest, ContextReuseMatchesPerMentionRerank) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 60;
  cc.num_noise_pages = 10;
  const websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  auto dir = MakeTempDir("saga_context_reuse");
  ASSERT_TRUE(dir.ok());
  // A small memory tier so profiles come from both cache tiers.
  auto cache = serving::EmbeddingKvCache::Open(*dir, 16 << 10);
  ASSERT_TRUE(cache.ok());
  Annotator::Options opts;
  opts.preset = DeploymentPreset::kAccurate;
  opts.rerank_only_ambiguous = false;
  Annotator annotator(&gen.kg, cache->get(), opts);
  const ContextReranker& reranker = annotator.reranker();
  ASSERT_TRUE(reranker.PrecomputeProfiles(cache->get()).ok());

  // Short corpus documents (windows mostly shared) and documents of
  // eight pages joined (windows mostly distinct).
  std::vector<std::string> docs;
  for (websim::DocId id = 0; id < corpus.size(); ++id) {
    docs.push_back(corpus.doc(id).body);
  }
  for (websim::DocId id = 0; id + 8 <= corpus.size(); id += 8) {
    std::string joined;
    for (websim::DocId j = id; j < id + 8; ++j) {
      joined += corpus.doc(j).body;
      joined += ' ';
    }
    docs.push_back(std::move(joined));
  }

  MentionDetector detector(&gen.kg.catalog());
  CandidateGenerator candidates(&gen.kg.catalog());
  size_t shared_windows = 0;
  size_t distinct_windows = 0;
  size_t compared = 0;
  for (const std::string& text : docs) {
    std::vector<Annotation> want;
    std::string_view last_window;
    for (const Mention& m : detector.Detect(text)) {
      const auto cands = candidates.Candidates(m.surface);
      if (cands.empty()) continue;
      const std::string_view window = reranker.ContextWindow(text, m);
      if (!last_window.empty() && window.data() == last_window.data() &&
          window.size() == last_window.size()) {
        ++shared_windows;
      } else if (!last_window.empty()) {
        ++distinct_windows;
      }
      last_window = window;
      const auto scored = reranker.Rerank(cands, text, m, cache->get());
      if (scored[0].score < opts.min_score) continue;
      Annotation a;
      a.mention = m;
      a.entity = scored[0].candidate.entity;
      a.score = scored[0].score;
      want.push_back(a);
    }
    const std::vector<Annotation> got = annotator.Annotate(text);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].mention.begin, want[i].mention.begin);
      EXPECT_EQ(got[i].mention.end, want[i].mention.end);
      EXPECT_EQ(got[i].entity, want[i].entity);
      uint64_t got_bits = 0;
      uint64_t want_bits = 0;
      std::memcpy(&got_bits, &got[i].score, sizeof(got_bits));
      std::memcpy(&want_bits, &want[i].score, sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits);
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(shared_windows, 0u);
  EXPECT_GT(distinct_windows, 0u);
  (void)RemoveDirRecursively(*dir);
}

TEST(AnnotatorTest, AssignsMostSpecificType) {
  kg::GeneratedKg gen = MakeKg();
  Annotator annotator(&gen.kg, nullptr);
  // Find an athlete and annotate a mention of them.
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.catalog().HasType(rec.id, gen.schema.athlete)) continue;
    if (gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;  // skip namesakes for determinism
    }
    const auto annotations =
        annotator.Annotate("We watched " + rec.canonical_name + " play.");
    ASSERT_FALSE(annotations.empty());
    EXPECT_EQ(annotations[0].type, gen.schema.athlete);
    return;
  }
  FAIL() << "no unambiguous athlete found";
}

TEST(AnnotatorTest, MinScoreGateDropsWeakAnnotations) {
  kg::GeneratedKg gen = MakeKg();
  Annotator::Options strict;
  strict.preset = DeploymentPreset::kFast;
  strict.min_score = 10.0;  // impossible bar: everything is NIL
  Annotator gated(&gen.kg, nullptr, strict);
  Annotator open(&gen.kg, nullptr);
  const std::string text =
      "A story about " + gen.kg.catalog().records().back().canonical_name +
      " today.";
  EXPECT_TRUE(gated.Annotate(text).empty());
  EXPECT_FALSE(open.Annotate(text).empty());
}

TEST(AnnotatorTest, RefreshSurfacesNewlyAddedEntities) {
  kg::GeneratedKg gen = MakeKg();
  Annotator annotator(&gen.kg, nullptr);
  const std::string text = "Breaking: Zanthor Quuxley wins the award";
  EXPECT_TRUE(annotator.Annotate(text).empty());

  // A new entity enters the continuously-growing KG.
  gen.kg.catalog().AddEntity("Zanthor Quuxley", {gen.schema.person}, 0.5);
  // The compiled gazetteer is stale until refreshed (§3.2 freshness).
  EXPECT_TRUE(annotator.Annotate(text).empty());
  annotator.RefreshGazetteer();
  const auto annotations = annotator.Annotate(text);
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(gen.kg.catalog().name(annotations[0].entity),
            "Zanthor Quuxley");
}

// ---------- Web linker ----------

TEST(WebLinkerTest, AddsEntityDocEdgesToKg) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 20;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  const size_t triples_before = gen.kg.num_triples();

  IncrementalWebLinker linker(&annotator, &gen.kg);
  const auto stats = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(stats.docs_scanned, corpus.size());
  EXPECT_EQ(stats.docs_annotated, corpus.size());
  EXPECT_EQ(stats.docs_skipped, 0u);
  EXPECT_GT(stats.annotations, 0u);
  EXPECT_GT(gen.kg.num_triples(), triples_before);
  EXPECT_GT(linker.index().num_entity_doc_edges(), 0u);
}

TEST(WebLinkerTest, SecondPassSkipsUnchangedDocs) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 20;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);

  const auto second = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(second.docs_annotated, 0u);
  EXPECT_EQ(second.docs_skipped, corpus.size());

  // Mutate 10% and re-run: only those are processed.
  Rng rng(5);
  const auto changed = websim::MutateCorpus(&corpus, 0.1, &rng);
  const auto third = linker.AnnotateCorpus(corpus);
  EXPECT_EQ(third.docs_annotated, changed.size());
  EXPECT_EQ(third.docs_skipped, corpus.size() - changed.size());
}

TEST(WebLinkerTest, ParallelAnnotationMatchesSerial) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 15;
  cc.num_noise_pages = 5;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);

  kg::KgGeneratorConfig same_config;  // fresh KGs so edges don't mix
  same_config.num_persons = 100;
  same_config.num_movies = 30;
  same_config.num_songs = 20;
  same_config.num_teams = 6;
  same_config.num_bands = 8;
  same_config.num_cities = 12;
  same_config.ambiguous_name_fraction = 0.12;
  kg::GeneratedKg gen2 = kg::GenerateKg(same_config);

  IncrementalWebLinker serial(&annotator, &gen2.kg);
  const auto serial_stats = serial.AnnotateCorpus(corpus);

  kg::GeneratedKg gen3 = kg::GenerateKg(same_config);
  ThreadPool pool(3);
  IncrementalWebLinker parallel(&annotator, &gen3.kg, &pool);
  const auto parallel_stats = parallel.AnnotateCorpus(corpus);

  EXPECT_EQ(parallel_stats.docs_annotated, serial_stats.docs_annotated);
  EXPECT_EQ(parallel_stats.annotations, serial_stats.annotations);
  for (websim::DocId id = 0; id < corpus.size(); ++id) {
    const auto* a = serial.index().ForDoc(id);
    const auto* b = parallel.index().ForDoc(id);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) continue;
    ASSERT_EQ(a->annotations.size(), b->annotations.size());
    for (size_t i = 0; i < a->annotations.size(); ++i) {
      EXPECT_EQ(a->annotations[i].entity, b->annotations[i].entity);
      EXPECT_EQ(a->annotations[i].mention.begin,
                b->annotations[i].mention.begin);
    }
  }
}

TEST(WebLinkerTest, IndexMapsEntitiesToDocs) {
  kg::GeneratedKg gen = MakeKg();
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 10;
  cc.num_noise_pages = 0;
  websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  Annotator annotator(&gen.kg, nullptr);
  IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);

  // Every doc in the index round-trips.
  for (websim::DocId id = 0; id < corpus.size(); ++id) {
    const AnnotatedDocument* ann = linker.index().ForDoc(id);
    ASSERT_NE(ann, nullptr);
    for (const Annotation& a : ann->annotations) {
      const auto& docs = linker.index().DocsMentioning(a.entity);
      EXPECT_TRUE(std::find(docs.begin(), docs.end(), id) != docs.end());
    }
  }
}

}  // namespace
}  // namespace saga::annotation
