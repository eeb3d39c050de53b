#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <latch>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/request_context.h"
#include "graph_engine/partitioner.h"
#include "graph_engine/ppr.h"
#include "graph_engine/query.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"

namespace saga::graph_engine {
namespace {

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 150;
  config.num_movies = 40;
  config.num_songs = 30;
  config.num_teams = 8;
  config.num_bands = 10;
  config.num_cities = 15;
  return kg::GenerateKg(config);
}

// ---------- GraphView ----------

TEST(GraphViewTest, FiltersLiteralsAndIrrelevantPredicates) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_GT(view.edges().size(), 0u);
  for (const ViewEdge& e : view.edges()) {
    const kg::PredicateId p = view.global_relation(e.relation);
    EXPECT_TRUE(gen.kg.ontology().predicate(p).embedding_relevant);
    EXPECT_EQ(gen.kg.ontology().predicate(p).range_kind,
              kg::Value::Kind::kEntity);
  }
  // Literal predicates never appear as relations.
  EXPECT_EQ(view.local_relation(gen.schema.date_of_birth),
            GraphView::kNotInView);
  EXPECT_NE(view.local_relation(gen.schema.acted_in), GraphView::kNotInView);
}

TEST(GraphViewTest, LocalIdsAreDenseAndInvertible) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  for (uint32_t local = 0; local < view.num_entities(); ++local) {
    EXPECT_EQ(view.local_entity(view.global_entity(local)), local);
  }
  for (const ViewEdge& e : view.edges()) {
    EXPECT_LT(e.src, view.num_entities());
    EXPECT_LT(e.dst, view.num_entities());
    EXPECT_LT(e.relation, view.num_relations());
  }
}

TEST(GraphViewTest, MinConfidenceDropsNoise) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition noisy;
  GraphView with_noise = GraphView::Build(gen.kg, noisy);
  ViewDefinition clean;
  clean.min_confidence = 0.5;
  GraphView without_noise = GraphView::Build(gen.kg, clean);
  EXPECT_LT(without_noise.edges().size(), with_noise.edges().size());
}

TEST(GraphViewTest, IncludePredicatesRestricts) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  def.include_predicates = {gen.schema.acted_in};
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_EQ(view.num_relations(), 1u);
  EXPECT_GT(view.edges().size(), 0u);
}

TEST(GraphViewTest, SubjectTypeFilterRespectsSubtyping) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  def.subject_types = {gen.schema.person};  // includes Athlete etc.
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_GT(view.edges().size(), 0u);
  for (const ViewEdge& e : view.edges()) {
    const kg::EntityId subject = view.global_entity(e.src);
    bool is_person = false;
    for (kg::TypeId t : gen.kg.catalog().record(subject).types) {
      if (gen.kg.ontology().IsSubtypeOf(t, gen.schema.person)) {
        is_person = true;
      }
    }
    EXPECT_TRUE(is_person);
  }
}

TEST(GraphViewTest, MinPredicateFrequencyDropsRarePredicates) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  def.min_predicate_frequency = 100000;  // nothing survives
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_TRUE(view.edges().empty());
}

TEST(GraphViewTest, ApplyDeltaAddsNewEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const size_t before = view.edges().size();
  const size_t entities_before = view.num_entities();

  // New entity + new relevant fact + one irrelevant fact.
  kg::EntityId fresh =
      gen.kg.catalog().AddEntity("Fresh Person", {gen.schema.person});
  const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
  std::vector<kg::TripleIdx> delta;
  delta.push_back(gen.kg.AddFact(fresh, gen.schema.spouse,
                                 kg::Value::Entity(kg::EntityId(0)), src));
  delta.push_back(gen.kg.AddFact(fresh, gen.schema.height_cm,
                                 kg::Value::Int(180), src));
  view.ApplyDelta(gen.kg, delta);
  EXPECT_EQ(view.edges().size(), before + 1);
  EXPECT_EQ(view.num_entities(), entities_before + 1);
  EXPECT_NE(view.local_entity(fresh), GraphView::kNotInView);
}

TEST(GraphViewTest, AdjacencyListsNeighborsInEdgeOrder) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  std::vector<std::vector<uint32_t>> want(view.num_entities());
  for (const ViewEdge& e : view.edges()) {
    want[e.src].push_back(e.dst);
    want[e.dst].push_back(e.src);
  }
  const auto& adj = view.Adjacency();
  ASSERT_EQ(adj.size(), want.size());
  for (uint32_t u = 0; u < want.size(); ++u) {
    EXPECT_TRUE(std::equal(adj[u].begin(), adj[u].end(), want[u].begin(),
                           want[u].end()))
        << "node " << u;
  }
}

TEST(GraphViewTest, ApplyDeltaRebuildsAdjacency) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const size_t before = view.Adjacency().size();
  kg::EntityId fresh =
      gen.kg.catalog().AddEntity("Fresh Person", {gen.schema.person});
  const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
  view.ApplyDelta(gen.kg, {gen.kg.AddFact(fresh, gen.schema.spouse,
                                          kg::Value::Entity(kg::EntityId(0)),
                                          src)});
  const auto& adj = view.Adjacency();
  ASSERT_EQ(adj.size(), before + 1);
  const uint32_t local = view.local_entity(fresh);
  ASSERT_EQ(adj[local].size(), 1u);
  EXPECT_EQ(adj[local][0], view.local_entity(kg::EntityId(0)));
}

TEST(GraphViewTest, AdjacencyIsSymmetric) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const auto& adj = view.Adjacency();
  ASSERT_EQ(adj.size(), view.num_entities());
  size_t total_degree = 0;
  for (const auto& nbrs : adj) total_degree += nbrs.size();
  EXPECT_EQ(total_degree, view.edges().size() * 2);
}

// ---------- Query ----------

TEST(QueryTest, MatchBySubjectPredicate) {
  kg::GeneratedKg gen = MakeKg();
  // Find any director and query their movies.
  kg::EntityId director;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (gen.kg.catalog().HasType(rec.id, gen.schema.director) &&
        !gen.kg.ObjectsOf(rec.id, gen.schema.directed).empty()) {
      director = rec.id;
      break;
    }
  }
  ASSERT_TRUE(director.valid());
  TriplePattern pattern;
  pattern.subject = director;
  pattern.predicate = gen.schema.directed;
  const auto hits = Match(gen.kg, pattern);
  EXPECT_FALSE(hits.empty());
  for (kg::TripleIdx idx : hits) {
    EXPECT_EQ(gen.kg.triples().triple(idx).subject, director);
    EXPECT_EQ(gen.kg.triples().triple(idx).predicate, gen.schema.directed);
  }
}

TEST(QueryTest, MatchByObjectEntity) {
  kg::GeneratedKg gen = MakeKg();
  // All athletes of some team.
  TriplePattern by_pred;
  by_pred.predicate = gen.schema.plays_for;
  const auto team_edges = Match(gen.kg, by_pred);
  ASSERT_FALSE(team_edges.empty());
  const kg::EntityId team =
      gen.kg.triples().triple(team_edges[0]).object.entity();
  TriplePattern pattern;
  pattern.object = kg::Value::Entity(team);
  for (kg::TripleIdx idx : Match(gen.kg, pattern)) {
    EXPECT_EQ(gen.kg.triples().triple(idx).object,
              kg::Value::Entity(team));
  }
}

TEST(QueryTest, UnboundPatternScansAll) {
  kg::GeneratedKg gen = MakeKg();
  TriplePattern everything;
  EXPECT_EQ(Match(gen.kg, everything).size(), gen.kg.num_triples());
}

TEST(QueryTest, FindEntitiesConjunction) {
  kg::GeneratedKg gen = MakeKg();
  // Persons born in city X with occupation Y must satisfy both.
  TriplePattern born;
  born.predicate = gen.schema.born_in;
  const auto born_edges = Match(gen.kg, born);
  ASSERT_FALSE(born_edges.empty());
  const kg::Value city = gen.kg.triples().triple(born_edges[0]).object;
  const auto people = FindEntities(gen.kg, {{gen.schema.born_in, city}});
  EXPECT_FALSE(people.empty());
  for (kg::EntityId e : people) {
    EXPECT_TRUE(gen.kg.triples().Contains(e, gen.schema.born_in, city));
  }
  EXPECT_TRUE(FindEntities(gen.kg, {}).empty());
}

TEST(QueryTest, JoinTwoHopAthletesByCity) {
  kg::GeneratedKg gen = MakeKg();
  // City of some team.
  TriplePattern tc;
  tc.predicate = gen.schema.team_city;
  const auto edges = Match(gen.kg, tc);
  ASSERT_FALSE(edges.empty());
  const kg::Value city = gen.kg.triples().triple(edges[0]).object;
  // Athletes whose team is in that city.
  const auto athletes =
      JoinTwoHop(gen.kg, gen.schema.plays_for, gen.schema.team_city, city);
  for (kg::EntityId athlete : athletes) {
    bool verified = false;
    for (const kg::Value& team :
         gen.kg.ObjectsOf(athlete, gen.schema.plays_for)) {
      if (team.is_entity() &&
          gen.kg.triples().Contains(team.entity(), gen.schema.team_city,
                                    city)) {
        verified = true;
      }
    }
    EXPECT_TRUE(verified);
  }
}

TEST(QueryTest, FollowPathComposesHops) {
  kg::GeneratedKg gen = MakeKg();
  // athlete --plays_for--> team --team_city--> city.
  kg::EntityId athlete;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.ObjectsOf(rec.id, gen.schema.plays_for).empty()) {
      athlete = rec.id;
      break;
    }
  }
  ASSERT_TRUE(athlete.valid());
  const auto cities = FollowPath(
      gen.kg, athlete, {gen.schema.plays_for, gen.schema.team_city});
  ASSERT_EQ(cities.size(), 1u);
  // Verify against manual composition.
  const kg::EntityId team =
      gen.kg.ObjectsOf(athlete, gen.schema.plays_for)[0].entity();
  const kg::EntityId city =
      gen.kg.ObjectsOf(team, gen.schema.team_city)[0].entity();
  EXPECT_EQ(cities[0], city);
  // Dead-end path yields empty.
  EXPECT_TRUE(FollowPath(gen.kg, athlete,
                         {gen.schema.plays_for, gen.schema.plays_for})
                  .empty());
}

TEST(QueryTest, LogicalSetOperators) {
  const std::vector<kg::EntityId> a = {kg::EntityId(1), kg::EntityId(2),
                                       kg::EntityId(3)};
  const std::vector<kg::EntityId> b = {kg::EntityId(2), kg::EntityId(3),
                                       kg::EntityId(5)};
  EXPECT_EQ(IntersectSets(a, b),
            (std::vector<kg::EntityId>{kg::EntityId(2), kg::EntityId(3)}));
  EXPECT_EQ(UnionSets(a, b),
            (std::vector<kg::EntityId>{kg::EntityId(1), kg::EntityId(2),
                                       kg::EntityId(3), kg::EntityId(5)}));
  EXPECT_EQ(DifferenceSets(a, b),
            (std::vector<kg::EntityId>{kg::EntityId(1)}));
  EXPECT_TRUE(IntersectSets({}, b).empty());
}

TEST(QueryTest, PathPlusLogicAnswersConjunctiveReasoning) {
  kg::GeneratedKg gen = MakeKg();
  // "People born in city C who are athletes of a team in C's country":
  // compose born_in->city_in and plays_for->team_city->city_in, then
  // intersect — a 2-anchor reasoning query.
  kg::EntityId person;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.ObjectsOf(rec.id, gen.schema.plays_for).empty() &&
        !gen.kg.ObjectsOf(rec.id, gen.schema.born_in).empty()) {
      person = rec.id;
      break;
    }
  }
  ASSERT_TRUE(person.valid());
  const auto birth_country =
      FollowPath(gen.kg, person, {gen.schema.born_in, gen.schema.city_in});
  const auto team_country =
      FollowPath(gen.kg, person,
                 {gen.schema.plays_for, gen.schema.team_city,
                  gen.schema.city_in});
  ASSERT_EQ(birth_country.size(), 1u);
  ASSERT_EQ(team_country.size(), 1u);
  const auto both = IntersectSets(birth_country, team_country);
  // Either empty (different countries) or exactly the shared one.
  if (!both.empty()) {
    EXPECT_EQ(both[0], birth_country[0]);
    EXPECT_EQ(both[0], team_country[0]);
  }
}

// ---------- Traversal ----------

TEST(TraversalTest, KHopNeighborsRespectDistance) {
  kg::GeneratedKg gen = MakeKg();
  const kg::EntityId start(0);
  auto one_hop = KHopNeighbors(gen.kg, start, 1);
  auto two_hop = KHopNeighbors(gen.kg, start, 2);
  EXPECT_GE(two_hop.size(), one_hop.size());
  for (const auto& [e, d] : one_hop) {
    EXPECT_EQ(d, 1);
  }
  for (const auto& [e, d] : two_hop) {
    EXPECT_LE(d, 2);
    EXPECT_GE(d, 1);
  }
  EXPECT_EQ(one_hop.count(start), 0u);
}

TEST(TraversalTest, ShortestPathConsistentWithKHop) {
  kg::GeneratedKg gen = MakeKg();
  const kg::EntityId start(0);
  auto two_hop = KHopNeighbors(gen.kg, start, 2);
  int checked = 0;
  for (const auto& [e, d] : two_hop) {
    EXPECT_EQ(ShortestPathLength(gen.kg, start, e, 4), d);
    if (++checked >= 10) break;
  }
  EXPECT_EQ(ShortestPathLength(gen.kg, start, start, 4), 0);
}

TEST(TraversalTest, MaxNodesBoundsTraversal) {
  kg::GeneratedKg gen = MakeKg();
  auto bounded = KHopNeighbors(gen.kg, kg::EntityId(0), 5, 10);
  EXPECT_LE(bounded.size(), 10u);
}

TEST(TraversalTest, CommonNeighbors) {
  kg::GeneratedKg gen = MakeKg();
  // A spouse pair shares at least... possibly nothing; instead verify
  // against direct computation for some pair.
  const kg::EntityId a(0);
  const kg::EntityId b(1);
  auto common = CommonNeighbors(gen.kg, a, b);
  auto na = gen.kg.Neighbors(a);
  auto nb = gen.kg.Neighbors(b);
  for (kg::EntityId c : common) {
    EXPECT_TRUE(std::find(na.begin(), na.end(), c) != na.end());
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), c) != nb.end());
  }
}

// ---------- Sampler ----------

TEST(SamplerTest, WalksStayOnEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const auto& adj = view.Adjacency();
  RandomWalkSampler::Options opts;
  opts.walks_per_node = 1;
  opts.walk_length = 5;
  RandomWalkSampler sampler(opts);
  Rng rng(3);
  const auto walks = sampler.GenerateWalks(view, &rng);
  EXPECT_EQ(walks.size(), view.num_entities());
  for (const auto& walk : walks) {
    ASSERT_FALSE(walk.empty());
    for (size_t i = 1; i < walk.size(); ++i) {
      const auto& nbrs = adj[walk[i - 1]];
      EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), walk[i]) !=
                  nbrs.end());
    }
  }
}

TEST(SamplerTest, CoOccurrencePairsWithinWindow) {
  RandomWalkSampler::Options opts;
  opts.window = 2;
  RandomWalkSampler sampler(opts);
  const std::vector<std::vector<uint32_t>> walks = {{1, 2, 3, 4}};
  const auto pairs = sampler.CoOccurrencePairs(walks);
  // (1,2),(1,3),(2,3),(2,4),(3,4)
  EXPECT_EQ(pairs.size(), 5u);
  for (const auto& [a, b] : pairs) EXPECT_NE(a, b);
}

// ---------- Partitioner ----------

TEST(PartitionerTest, BalancedAssignment) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 4, &rng);
  size_t total = 0;
  for (int p = 0; p < 4; ++p) {
    total += part.partition_members(p).size();
    EXPECT_NEAR(static_cast<double>(part.partition_members(p).size()),
                static_cast<double>(view.num_entities()) / 4.0, 1.0);
  }
  EXPECT_EQ(total, view.num_entities());
}

TEST(PartitionerTest, BucketsPartitionAllEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 3, &rng);
  size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (const ViewEdge& e : part.Bucket(view, i, j)) {
        EXPECT_EQ(part.partition_of(e.src), i);
        EXPECT_EQ(part.partition_of(e.dst), j);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, view.edges().size());
}

TEST(PartitionerTest, DiskBucketsRoundTrip) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 3, &rng);
  auto dir = MakeTempDir("saga_buckets");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(part.WriteBuckets(view, *dir).ok());
  size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      auto bucket = EdgePartitioner::LoadBucket(*dir, i, j);
      ASSERT_TRUE(bucket.ok());
      EXPECT_EQ(bucket->size(), part.Bucket(view, i, j).size());
      total += bucket->size();
    }
  }
  EXPECT_EQ(total, view.edges().size());
  (void)RemoveDirRecursively(*dir);
}

TEST(PartitionerTest, ScheduleCoversAllBucketsAndSharesPartitions) {
  const auto schedule = EdgePartitioner::BucketSchedule(4);
  EXPECT_EQ(schedule.size(), 16u);
  std::set<std::pair<int, int>> seen(schedule.begin(), schedule.end());
  EXPECT_EQ(seen.size(), 16u);
  // Consecutive entries share at least one partition.
  for (size_t i = 1; i < schedule.size(); ++i) {
    const auto& [a1, b1] = schedule[i - 1];
    const auto& [a2, b2] = schedule[i];
    EXPECT_TRUE(a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2);
  }
}

// ---------- PPR ----------

TEST(PprTest, ScoresConcentrateNearSource) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  // Pick a node with neighbors.
  uint32_t source = 0;
  const auto& adj = view.Adjacency();
  for (uint32_t i = 0; i < view.num_entities(); ++i) {
    if (adj[i].size() >= 2) {
      source = i;
      break;
    }
  }
  const auto scores = ppr.Ppr(source);
  ASSERT_FALSE(scores.empty());
  EXPECT_GT(scores.at(source), 0.0);
  // Source should hold the top score.
  for (const auto& [node, score] : scores) {
    EXPECT_LE(score, scores.at(source) + 1e-12);
  }
  // Mass is (approximately) bounded by 1.
  double total = 0.0;
  for (const auto& [node, score] : scores) total += score;
  EXPECT_LE(total, 1.0 + 1e-6);
}

TEST(PprTest, TopKExcludesSourceAndIsSorted) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const auto top = ppr.TopKRelated(0, 10);
  EXPECT_LE(top.size(), 10u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_NE(top[i].first, 0u);
    if (i > 0) {
      EXPECT_GE(top[i - 1].second, top[i].second);
    }
  }
}

TEST(PprTest, NeighborsOutrankDistantNodes) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  const auto& adj = view.Adjacency();
  uint32_t source = 0;
  for (uint32_t i = 0; i < view.num_entities(); ++i) {
    if (adj[i].size() >= 3) {
      source = i;
      break;
    }
  }
  PprEngine ppr(&view);
  const auto scores = ppr.Ppr(source);
  // Average neighbor score should beat the average non-neighbor score.
  double nbr_sum = 0.0;
  size_t nbr_n = 0;
  double other_sum = 0.0;
  size_t other_n = 0;
  std::set<uint32_t> nbrs(adj[source].begin(), adj[source].end());
  for (const auto& [node, score] : scores) {
    if (node == source) continue;
    if (nbrs.count(node)) {
      nbr_sum += score;
      ++nbr_n;
    } else {
      other_sum += score;
      ++other_n;
    }
  }
  ASSERT_GT(nbr_n, 0u);
  if (other_n > 0) {
    EXPECT_GT(nbr_sum / nbr_n, other_sum / other_n);
  }
}

// ---------- PPR: dense push vs the hash-map reference ----------

using Scores = std::unordered_map<uint32_t, double>;
using Ranked = std::vector<std::pair<uint32_t, double>>;

/// The hash-map forward push PprEngine used before the dense-scratch
/// rewrite, kept verbatim (minus the deadline/fault hooks) as the
/// oracle: the engine must reproduce its scores bit for bit.
Scores ReferencePpr(const GraphView& view, const PprEngine::Options& options_,
                    uint32_t source) {
  const auto& adj = view.Adjacency();
  std::unordered_map<uint32_t, double> p;
  std::unordered_map<uint32_t, double> r;
  r[source] = 1.0;
  std::deque<uint32_t> queue{source};
  std::unordered_map<uint32_t, bool> queued;
  queued[source] = true;

  size_t pushes = 0;
  while (!queue.empty() && pushes < options_.max_pushes) {
    const uint32_t u = queue.front();
    queue.pop_front();
    queued[u] = false;
    const double ru = r[u];
    const size_t deg = adj[u].size();
    if (deg == 0) {
      // Dangling node: absorb the residual.
      p[u] += ru;
      r[u] = 0.0;
      continue;
    }
    if (ru / static_cast<double>(deg) < options_.epsilon) continue;
    ++pushes;
    p[u] += options_.alpha * ru;
    const double push = (1.0 - options_.alpha) * ru /
                        static_cast<double>(deg);
    r[u] = 0.0;
    for (uint32_t v : adj[u]) {
      r[v] += push;
      if (!queued[v] &&
          r[v] / std::max<size_t>(1, adj[v].size()) >= options_.epsilon) {
        queue.push_back(v);
        queued[v] = true;
      }
    }
  }
  return p;
}

Ranked ReferenceTopK(std::unordered_map<uint32_t, double> scores,
                     uint32_t source, size_t k) {
  scores.erase(source);
  std::vector<std::pair<uint32_t, double>> out(scores.begin(), scores.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

constexpr size_t kTopKs[] = {1, 10, 168, 1u << 20};

/// Every source of `view`: Ppr and TopKRelated equal the reference
/// exactly (same keys, `==` on every double).
void ExpectMatchesReference(const GraphView& view,
                            const PprEngine::Options& options) {
  PprEngine ppr(&view, options);
  for (uint32_t source = 0; source < view.num_entities(); ++source) {
    const Scores want = ReferencePpr(view, options, source);
    ASSERT_EQ(ppr.Ppr(source), want) << "source " << source;
    for (size_t k : kTopKs) {
      ASSERT_EQ(ppr.TopKRelated(source, k), ReferenceTopK(want, source, k))
          << "source " << source << " k " << k;
    }
  }
}

TEST(PprDifferentialTest, MatchesReferenceAtDefaultEpsilon) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  ExpectMatchesReference(view, PprEngine::Options());
}

TEST(PprDifferentialTest, MatchesReferenceOnLargerKg) {
  kg::GeneratedKg gen = kg::GenerateKg(kg::KgGeneratorConfig());
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  ExpectMatchesReference(view, PprEngine::Options());
}

TEST(PprDifferentialTest, MatchesReferenceAtTightEpsilon) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine::Options tight;
  tight.epsilon /= 100;
  tight.max_pushes *= 100;
  ExpectMatchesReference(view, tight);
}

TEST(PprDifferentialTest, MatchesReferenceUnderPushCap) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  for (size_t cap : {1u, 3u, 17u}) {
    PprEngine::Options capped;
    capped.max_pushes = cap;
    ExpectMatchesReference(view, capped);
  }
}

TEST(PprDifferentialTest, ServingVariantMatchesReference) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  for (uint32_t source = 0; source < view.num_entities(); source += 7) {
    const Scores want = ReferencePpr(view, PprEngine::Options(), source);
    auto got = ppr.Ppr(source, generous);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, want);
    auto top = ppr.TopKRelated(source, 10, generous);
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(*top, ReferenceTopK(want, source, 10));
  }
}

/// A source whose push runs for many steps (the highest-degree node).
uint32_t HubSource(const GraphView& view) {
  const auto& adj = view.Adjacency();
  uint32_t hub = 0;
  for (uint32_t u = 0; u < adj.size(); ++u) {
    if (adj[u].size() > adj[hub].size()) hub = u;
  }
  return hub;
}

TEST(PprDifferentialTest, FailedCallsLeaveScratchClean) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const uint32_t hub = HubSource(view);

  Scores fresh_scores;
  Ranked fresh_top;
  std::thread([&] {
    fresh_scores = ppr.Ppr(hub);
    fresh_top = ppr.TopKRelated(hub, 10);
  }).join();
  ASSERT_GT(fresh_scores.size(), 40u);

  const RequestContext expired = RequestContext::WithTimeoutMillis(-1.0);
  EXPECT_TRUE(ppr.Ppr(hub, expired).status().IsDeadlineExceeded());
  EXPECT_EQ(ppr.Ppr(hub), fresh_scores);
  EXPECT_TRUE(ppr.TopKRelated(hub, 10, expired).status().IsDeadlineExceeded());
  EXPECT_EQ(ppr.TopKRelated(hub, 10), fresh_top);

  // Fail deep inside the push, after the scratch has been dirtied.
  const RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  FaultSpec spec;
  spec.fail_nth = 40;
  {
    ScopedFault fault("graph.traverse", spec);
    EXPECT_FALSE(ppr.Ppr(hub, generous).ok());
  }
  EXPECT_EQ(ppr.Ppr(hub), fresh_scores);
  {
    ScopedFault fault("graph.traverse", spec);
    EXPECT_FALSE(ppr.TopKRelated(hub, 10, generous).ok());
  }
  EXPECT_EQ(ppr.TopKRelated(hub, 10), fresh_top);
}

TEST(PprDifferentialTest, EnginesOverDifferentViewsInterleave) {
  kg::GeneratedKg small_gen = MakeKg();
  GraphView small = GraphView::Build(small_gen.kg, ViewDefinition());
  kg::GeneratedKg large_gen = kg::GenerateKg(kg::KgGeneratorConfig());
  GraphView large = GraphView::Build(large_gen.kg, ViewDefinition());
  ASSERT_LT(small.num_entities(), large.num_entities());
  PprEngine small_ppr(&small);
  PprEngine large_ppr(&large);
  const PprEngine::Options options;
  // Small first, so the thread's scratch grows mid-sequence.
  for (uint32_t i = 0; i < small.num_entities(); i += 5) {
    const uint32_t big = (i * 7919u) % large.num_entities();
    EXPECT_EQ(small_ppr.Ppr(i), ReferencePpr(small, options, i));
    EXPECT_EQ(large_ppr.Ppr(big), ReferencePpr(large, options, big));
    EXPECT_EQ(small_ppr.TopKRelated(i, 10),
              ReferenceTopK(ReferencePpr(small, options, i), i, 10));
  }
}

TEST(PprConcurrencyTest, ThreadsShareAnUnbuiltView) {
  kg::GeneratedKg gen = kg::GenerateKg(kg::KgGeneratorConfig());
  // The expected answers come from a separate but identical view, so
  // nothing builds `fresh`'s adjacency before the threads race to.
  GraphView expected_view = GraphView::Build(gen.kg, ViewDefinition());
  GraphView fresh = GraphView::Build(gen.kg, ViewDefinition());
  constexpr uint32_t kSources = 64;
  std::vector<Ranked> want;
  PprEngine expected_ppr(&expected_view);
  for (uint32_t s = 0; s < kSources; ++s) {
    want.push_back(expected_ppr.TopKRelated(s, 10));
  }

  constexpr int kThreads = 4;
  PprEngine ppr(&fresh);
  std::latch start(kThreads);
  std::vector<std::vector<Ranked>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each thread walks the sources from a different offset.
      got[t].resize(kSources);
      for (uint32_t i = 0; i < kSources; ++i) {
        const uint32_t s = (i + t * 16) % kSources;
        got[t][s] = ppr.TopKRelated(s, 10);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << "thread " << t;
}

}  // namespace
}  // namespace saga::graph_engine
