// Seeded request streams for the serving benchmark. Every stream is a
// pure function of the (fixed) generated KG and the workload seed, and
// is built before any clock starts; StreamHash fingerprints it so two
// runs can prove they replayed the same traffic.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "websim/corpus_generator.h"

namespace perfbench {

/// One `ask` query with the subject it was generated from and the
/// relation it asks for; both invalid for queries that name no entity.
/// When namesakes also hold the relation, the query cannot tell them
/// apart, and any of them is a right answer.
struct AskRequest {
  std::string query;
  saga::kg::EntityId subject;
  saga::kg::PredicateId predicate;
};

/// One knowledge-panel request: neighbours and related entities of
/// `entity`, the related list restricted to `type_filter`.
struct RelatedRequest {
  saga::kg::EntityId entity;
  saga::kg::TypeId type_filter;
};

/// One profile refresh: the `version`-th write of `entity` in the
/// stream (1-based), which fixes the bytes written.
struct WriteRequest {
  saga::kg::EntityId entity;
  uint32_t version = 0;
};

/// Template queries ("<name> movies", "<name> date of birth",
/// "<name> team") over Zipf-popular subjects, 10% over namesakes that
/// only the relation word tells apart, and 2% queries naming no
/// entity.
std::vector<AskRequest> AskStream(const saga::kg::GeneratedKg& gen,
                                  uint64_t seed, size_t n);

/// Zipf-popular entities of the view, filtered to their most specific
/// type.
std::vector<RelatedRequest> RelatedStream(
    const saga::kg::GeneratedKg& gen, const saga::graph_engine::GraphView& view,
    uint64_t seed, size_t n);

/// Documents drawn uniformly (with replacement) from the corpus.
std::vector<saga::websim::DocId> LinkStream(
    const saga::websim::WebCorpus& corpus, uint64_t seed, size_t n);

/// Zipf-popular entities to refresh, with per-entity version numbers.
std::vector<WriteRequest> WriteStream(const saga::kg::GeneratedKg& gen,
                                      uint64_t seed, size_t n);

/// Due times (seconds from phase start) of a Poisson arrival process
/// at `rate_per_s`, covering `seconds`.
std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    uint64_t seed);

/// Most specific type of an entity (no subtype of it is also held).
saga::kg::TypeId MostSpecificType(const saga::kg::KnowledgeGraph& kg,
                                  saga::kg::EntityId id);

/// FNV-1a fingerprints of the streams.
uint64_t StreamHash(const std::vector<AskRequest>& s);
uint64_t StreamHash(const std::vector<RelatedRequest>& s);
uint64_t StreamHash(const std::vector<saga::websim::DocId>& s);
uint64_t StreamHash(const std::vector<WriteRequest>& s);
uint64_t StreamHash(const std::vector<double>& s);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
