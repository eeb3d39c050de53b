#include <gtest/gtest.h>

#include "annotation/query_answering.h"
#include "common/string_util.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/fact_ranker.h"

namespace saga::annotation {
namespace {

struct QaFixture {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  embedding::TrainedEmbeddings emb;

  static QaFixture Make() {
    kg::KgGeneratorConfig config;
    config.num_persons = 120;
    config.num_movies = 40;
    config.num_songs = 20;
    config.num_teams = 6;
    config.num_bands = 8;
    config.num_cities = 12;
    QaFixture f{kg::GenerateKg(config), {}, {}};
    f.view = graph_engine::GraphView::Build(f.gen.kg,
                                            graph_engine::ViewDefinition());
    embedding::TrainingConfig tc;
    tc.dim = 16;
    tc.epochs = 3;
    embedding::InMemoryTrainer trainer(tc);
    f.emb = trainer.Train(f.view);
    return f;
  }
};

kg::EntityId FindUnambiguous(const QaFixture& f, kg::TypeId type,
                             kg::PredicateId must_have) {
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (!f.gen.kg.catalog().HasType(rec.id, type)) continue;
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (f.gen.kg.ObjectsOf(rec.id, must_have).empty()) continue;
    return rec.id;
  }
  return kg::EntityId::Invalid();
}

TEST(QueryAnsweringTest, AnswersActorMoviesQuery) {
  QaFixture f = QaFixture::Make();
  serving::FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  QueryAnswerer answerer(&f.gen.kg, &ranker);

  const kg::EntityId actor =
      FindUnambiguous(f, f.gen.schema.actor, f.gen.schema.acted_in);
  ASSERT_TRUE(actor.valid());
  const auto answer =
      answerer.Ask(ToLower(f.gen.kg.catalog().name(actor)) + " movies");
  ASSERT_TRUE(answer.answered) << answer.explanation;
  EXPECT_EQ(answer.subject, actor);
  EXPECT_EQ(answer.predicate, f.gen.schema.acted_in);
  EXPECT_EQ(answer.facts.size(),
            f.gen.kg.ObjectsOf(actor, f.gen.schema.acted_in).size());
  for (const auto& fact : answer.facts) {
    EXPECT_TRUE(f.gen.kg.triples().Contains(actor, f.gen.schema.acted_in,
                                            fact.object));
  }
}

TEST(QueryAnsweringTest, AnswersLiteralFactQuery) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  // Person with a DOB in the KG.
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (!f.gen.kg.ObjectsOf(rec.id, f.gen.schema.date_of_birth).empty()) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto answer = answerer.Ask(
      ToLower(f.gen.kg.catalog().name(subject)) + " date of birth");
  ASSERT_TRUE(answer.answered) << answer.explanation;
  EXPECT_EQ(answer.predicate, f.gen.schema.date_of_birth);
  ASSERT_EQ(answer.facts.size(), 1u);
  EXPECT_EQ(answer.facts[0].object.kind(), kg::Value::Kind::kDate);
}

// The answerer tokenizes the ontology's predicates once, at
// construction; one added afterwards (as WebLinker adds "mentioned in")
// must still resolve, read from the ontology rather than past the end of
// the precomputed tokens.
TEST(QueryAnsweringTest, PredicateAddedAfterConstructionResolves) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  const kg::EntityId actor =
      FindUnambiguous(f, f.gen.schema.actor, f.gen.schema.acted_in);
  ASSERT_TRUE(actor.valid());

  kg::PredicateMeta meta;
  meta.name = "stage_nickname";
  meta.range_kind = kg::Value::Kind::kString;
  meta.surface_form = "zorblax nickname";
  const kg::PredicateId added = f.gen.kg.ontology().AddPredicate(meta);
  f.gen.kg.AddFact(actor, added, kg::Value::String("the zorb"),
                   f.gen.kg.AddSource("test", 1.0));

  const auto answer = answerer.Ask(
      ToLower(f.gen.kg.catalog().name(actor)) + " zorblax nickname");
  ASSERT_TRUE(answer.answered) << answer.explanation;
  EXPECT_EQ(answer.subject, actor);
  EXPECT_EQ(answer.predicate, added);
  ASSERT_EQ(answer.facts.size(), 1u);
  EXPECT_EQ(answer.facts[0].object, kg::Value::String("the zorb"));

  // Predicates from before construction resolve as they did.
  const auto movies =
      answerer.Ask(ToLower(f.gen.kg.catalog().name(actor)) + " movies");
  EXPECT_EQ(movies.predicate, f.gen.schema.acted_in);
}

TEST(QueryAnsweringTest, QueryContextDisambiguatesNamesakes) {
  // A player and a professor sharing a name: "X team" should resolve
  // to the athlete, "X university" to the professor.
  kg::KnowledgeGraph kg;
  kg::SchemaHandles h = kg::InstallStandardSchema(&kg);
  const kg::SourceId src = kg.AddSource("test", 1.0);
  kg::EntityId player = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.athlete}, 0.9, "basketball player");
  kg::EntityId professor = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.professor}, 0.3, "professor");
  kg::EntityId team =
      kg.catalog().AddEntity("Springfield Bulls", {h.sports_team}, 0.5);
  kg::EntityId uni =
      kg.catalog().AddEntity("University of Oakdale", {h.university}, 0.4);
  kg.AddFact(player, h.plays_for, kg::Value::Entity(team), src);
  kg.AddFact(professor, h.works_at, kg::Value::Entity(uni), src);

  QueryAnswerer answerer(&kg, nullptr);
  const auto team_answer = answerer.Ask("michael jordan team");
  ASSERT_TRUE(team_answer.answered) << team_answer.explanation;
  EXPECT_EQ(team_answer.subject, player);
  EXPECT_EQ(team_answer.facts[0].object, kg::Value::Entity(team));

  const auto uni_answer = answerer.Ask("michael jordan university");
  ASSERT_TRUE(uni_answer.answered) << uni_answer.explanation;
  EXPECT_EQ(uni_answer.subject, professor);
  EXPECT_EQ(uni_answer.facts[0].object, kg::Value::Entity(uni));
}

TEST(QueryAnsweringTest, UnknownEntityIsUnanswered) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  const auto answer = answerer.Ask("glorbnik the unheard of movies");
  EXPECT_FALSE(answer.answered);
  EXPECT_NE(answer.explanation.find("no entity"), std::string::npos);
}

TEST(QueryAnsweringTest, EntityWithoutRelationIsUnanswered) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  const kg::EntityId actor =
      FindUnambiguous(f, f.gen.schema.actor, f.gen.schema.acted_in);
  ASSERT_TRUE(actor.valid());
  // No relation words at all.
  const auto answer =
      answerer.Ask(ToLower(f.gen.kg.catalog().name(actor)));
  EXPECT_FALSE(answer.answered);
  EXPECT_TRUE(answer.subject.valid());
}

TEST(QueryAnsweringTest, RankerOrdersMultiValuedAnswers) {
  QaFixture f = QaFixture::Make();
  serving::FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  QueryAnswerer answerer(&f.gen.kg, &ranker);
  // Person with multiple occupations.
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() < 2) {
      continue;
    }
    const auto answer = answerer.Ask(
        ToLower(rec.canonical_name) + " occupation");
    ASSERT_TRUE(answer.answered) << answer.explanation;
    for (size_t i = 1; i < answer.facts.size(); ++i) {
      EXPECT_GE(answer.facts[i - 1].score, answer.facts[i].score);
    }
    return;
  }
  FAIL() << "no multi-occupation person found";
}

}  // namespace
}  // namespace saga::annotation
