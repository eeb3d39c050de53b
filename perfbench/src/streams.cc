#include "streams.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

namespace kg = saga::kg;

namespace {

// Distinct sub-seeds so the streams of one workload seed do not share
// random sequences.
constexpr uint64_t kAskSalt = 0xA5C0000000000001ull;
constexpr uint64_t kRelatedSalt = 0xA5C0000000000002ull;
constexpr uint64_t kLinkSalt = 0xA5C0000000000003ull;
constexpr uint64_t kWriteSalt = 0xA5C0000000000004ull;
constexpr uint64_t kScheduleSalt = 0xA5C0000000000005ull;

constexpr double kZipfExponent = 1.0;

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Ids sorted by popularity, most popular first (ties by id), so a
/// Zipf rank picks popular entities most often.
std::vector<kg::EntityId> ByPopularity(const kg::KnowledgeGraph& g,
                                       std::vector<kg::EntityId> ids) {
  std::sort(ids.begin(), ids.end(), [&](kg::EntityId a, kg::EntityId b) {
    const double pa = g.catalog().popularity(a);
    const double pb = g.catalog().popularity(b);
    if (pa != pb) return pa > pb;
    return a < b;
  });
  return ids;
}

struct Template {
  const char* surface;
  kg::PredicateId predicate;
  std::vector<kg::EntityId> subjects;  // holders, most popular first
};

bool Holds(const kg::KnowledgeGraph& g, kg::EntityId e, kg::PredicateId p) {
  return !g.triples().BySubjectPredicate(e, p).empty();
}

}  // namespace

kg::TypeId MostSpecificType(const kg::KnowledgeGraph& g, kg::EntityId id) {
  const auto& types = g.catalog().record(id).types;
  kg::TypeId best = kg::TypeId::Invalid();
  for (kg::TypeId t : types) {
    bool has_more_specific = false;
    for (kg::TypeId other : types) {
      if (other != t && g.ontology().IsSubtypeOf(other, t)) {
        has_more_specific = true;
        break;
      }
    }
    if (!has_more_specific) best = t;
  }
  return best;
}

std::vector<AskRequest> AskStream(const kg::GeneratedKg& gen, uint64_t seed,
                                  size_t n) {
  const kg::KnowledgeGraph& g = gen.kg;
  std::vector<Template> templates = {
      {"movies", gen.schema.acted_in, {}},
      {"date of birth", gen.schema.date_of_birth, {}},
      {"team", gen.schema.plays_for, {}},
  };
  for (Template& t : templates) {
    std::vector<kg::EntityId> holders;
    for (const kg::EntityRecord& rec : g.catalog().records()) {
      if (Holds(g, rec.id, t.predicate)) holders.push_back(rec.id);
    }
    t.subjects = ByPopularity(g, std::move(holders));
  }
  // Namesake groups where exactly one member holds a template's
  // predicate: the query's relation words decide which one is meant.
  struct Ambiguous {
    size_t tmpl;
    kg::EntityId intended;
  };
  std::vector<Ambiguous> ambiguous;
  for (const auto& group : gen.ambiguous_groups) {
    for (size_t t = 0; t < templates.size(); ++t) {
      kg::EntityId holder;
      int holders = 0;
      for (kg::EntityId e : group) {
        if (Holds(g, e, templates[t].predicate)) {
          holder = e;
          ++holders;
        }
      }
      if (holders == 1) ambiguous.push_back({t, holder});
    }
  }
  static const char* const kNoEntity[] = {
      "cheap flights next weekend", "how to bake sourdough bread",
      "weather forecast tomorrow",  "best running shoes for beginners",
      "convert miles to kilometers", "easy pasta recipes",
  };

  saga::Rng rng(seed ^ kAskSalt);
  std::vector<AskRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double kind = rng.NextDouble();
    AskRequest r;
    if (kind < 0.02) {
      r.query = kNoEntity[rng.Uniform(std::size(kNoEntity))];
    } else if (kind < 0.12 && !ambiguous.empty()) {
      const Ambiguous& a = ambiguous[rng.Uniform(ambiguous.size())];
      r.subject = a.intended;
      r.predicate = templates[a.tmpl].predicate;
      r.query = Lower(g.catalog().name(a.intended)) + " " +
                templates[a.tmpl].surface;
    } else {
      const Template& t = templates[rng.Uniform(templates.size())];
      r.subject = t.subjects[rng.Zipf(t.subjects.size(), kZipfExponent)];
      r.predicate = t.predicate;
      r.query = Lower(g.catalog().name(r.subject)) + " " + t.surface;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<RelatedRequest> RelatedStream(
    const kg::GeneratedKg& gen, const saga::graph_engine::GraphView& view,
    uint64_t seed, size_t n) {
  std::vector<kg::EntityId> in_view;
  in_view.reserve(view.num_entities());
  for (uint32_t l = 0; l < view.num_entities(); ++l) {
    in_view.push_back(view.global_entity(l));
  }
  const std::vector<kg::EntityId> ranked = ByPopularity(gen.kg, in_view);
  saga::Rng rng(seed ^ kRelatedSalt);
  std::vector<RelatedRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const kg::EntityId e = ranked[rng.Zipf(ranked.size(), kZipfExponent)];
    out.push_back({e, MostSpecificType(gen.kg, e)});
  }
  return out;
}

std::vector<saga::websim::DocId> LinkStream(
    const saga::websim::WebCorpus& corpus, uint64_t seed, size_t n) {
  saga::Rng rng(seed ^ kLinkSalt);
  std::vector<saga::websim::DocId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<saga::websim::DocId>(rng.Uniform(corpus.size())));
  }
  return out;
}

std::vector<WriteRequest> WriteStream(const kg::GeneratedKg& gen,
                                      uint64_t seed, size_t n) {
  std::vector<kg::EntityId> all;
  for (const kg::EntityRecord& rec : gen.kg.catalog().records()) {
    all.push_back(rec.id);
  }
  const std::vector<kg::EntityId> ranked = ByPopularity(gen.kg, all);
  saga::Rng rng(seed ^ kWriteSalt);
  std::unordered_map<kg::EntityId, uint32_t> versions;
  std::vector<WriteRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const kg::EntityId e = ranked[rng.Zipf(ranked.size(), kZipfExponent)];
    out.push_back({e, ++versions[e]});
  }
  return out;
}

std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    uint64_t seed) {
  saga::Rng rng(seed ^ kScheduleSalt);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - u keeps the log argument > 0.
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

uint64_t StreamHash(const std::vector<AskRequest>& s) {
  Fnv h;
  for (const AskRequest& r : s) {
    h.Bytes(r.query.data(), r.query.size());
    h.U64(r.subject.value());
    h.U64(r.predicate.value());
  }
  return h.value();
}

uint64_t StreamHash(const std::vector<RelatedRequest>& s) {
  Fnv h;
  for (const RelatedRequest& r : s) {
    h.U64(r.entity.value());
    h.U64(r.type_filter.value());
  }
  return h.value();
}

uint64_t StreamHash(const std::vector<saga::websim::DocId>& s) {
  Fnv h;
  for (saga::websim::DocId d : s) h.U64(d);
  return h.value();
}

uint64_t StreamHash(const std::vector<WriteRequest>& s) {
  Fnv h;
  for (const WriteRequest& w : s) {
    h.U64(w.entity.value());
    h.U64(w.version);
  }
  return h.value();
}

uint64_t StreamHash(const std::vector<double>& s) {
  Fnv h;
  for (double d : s) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h.U64(bits);
  }
  return h.value();
}

}  // namespace perfbench
