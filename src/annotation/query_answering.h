#ifndef SAGA_ANNOTATION_QUERY_ANSWERING_H_
#define SAGA_ANNOTATION_QUERY_ANSWERING_H_

#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotator.h"
#include "common/request_context.h"
#include "common/result.h"
#include "kg/knowledge_graph.h"
#include "serving/fact_ranker.h"

namespace saga::annotation {

/// Answers entity-centric queries — the paper's §1 motivating example:
/// "benicio del toro movies" is semantically annotated as
/// ("benicio del toro" -> entity, "movies" -> relation surface form),
/// then resolved against the KG with importance-ranked facts.
class QueryAnswerer {
 public:
  struct Answer {
    bool answered = false;
    /// The linked subject entity of the query.
    kg::EntityId subject;
    double subject_score = 0.0;
    /// The relation resolved from the non-entity query tokens.
    kg::PredicateId predicate;
    /// Ranked objects (entity facts ranked by the fact ranker; literal
    /// facts in KG order).
    std::vector<serving::FactRanker::RankedFact> facts;
    /// Human-readable derivation, e.g.
    /// `"benicio del toro" -> E123 | "movies" -> acted_in`.
    std::string explanation;
  };

  /// `ranker` may be null: facts then keep KG order.
  QueryAnswerer(const kg::KnowledgeGraph* kg,
                const serving::FactRanker* ranker);

  Answer Ask(std::string_view query) const;

  /// Deadline-aware variant: checks the budget between pipeline stages
  /// (annotate -> resolve relation -> retrieve/rank) and returns
  /// DeadlineExceeded rather than a half-computed answer. Annotation is
  /// the expensive stage; a budget that survives it usually finishes.
  Result<Answer> Ask(std::string_view query, const RequestContext& ctx) const;

 private:
  /// The lowercased tokens of one predicate's surface form and name.
  struct PredicateTokens {
    std::vector<std::string> surface;
    std::vector<std::string> name;
  };
  static PredicateTokens TokenizePredicate(const kg::PredicateMeta& meta);

  /// Shared pipeline; `ctx` null for the deadline-less overload.
  Status AskImpl(std::string_view query, const RequestContext* ctx,
                 Answer* answer) const;
  /// Best predicate whose surface form / name tokens appear in the
  /// query remainder; ties break toward longer surface matches and
  /// predicates the subject actually holds. Invalid() if none match.
  kg::PredicateId ResolvePredicate(const std::vector<std::string>& tokens,
                                   kg::EntityId subject) const;

  const kg::KnowledgeGraph* kg_;
  const serving::FactRanker* ranker_;
  Annotator annotator_;
  /// TokenizePredicate of each predicate the ontology held at
  /// construction, in ontology order. The ontology is append-only, so a
  /// predicate added later (WebLinker's "mentioned in") has an id past
  /// the end and is tokenized per call instead.
  std::vector<PredicateTokens> predicate_tokens_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_QUERY_ANSWERING_H_
