#include "annotation/query_answering.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"
#include "text/tokenizer.h"

namespace saga::annotation {

QueryAnswerer::QueryAnswerer(const kg::KnowledgeGraph* kg,
                             const serving::FactRanker* ranker)
    : kg_(kg), ranker_(ranker), annotator_(kg, nullptr) {
  for (const kg::PredicateMeta& meta : kg_->ontology().predicates()) {
    predicate_tokens_.push_back(TokenizePredicate(meta));
  }
}

QueryAnswerer::PredicateTokens QueryAnswerer::TokenizePredicate(
    const kg::PredicateMeta& meta) {
  PredicateTokens out;
  for (text::Token& t : text::Tokenize(meta.surface_form)) {
    out.surface.push_back(std::move(t.text));
  }
  for (text::Token& t : text::Tokenize(meta.name)) {
    out.name.push_back(std::move(t.text));
  }
  return out;
}

kg::PredicateId QueryAnswerer::ResolvePredicate(
    const std::vector<std::string>& tokens, kg::EntityId subject) const {
  // The remainder is a few tokens: a linear scan beats building a set.
  auto in_query = [&tokens](const std::string& t) {
    return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
  };
  const std::vector<kg::PredicateMeta>& predicates =
      kg_->ontology().predicates();
  kg::PredicateId best;
  double best_score = 0.0;
  PredicateTokens added;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const kg::PredicateMeta& meta = predicates[i];
    if (i >= predicate_tokens_.size()) added = TokenizePredicate(meta);
    const PredicateTokens& toks =
        i < predicate_tokens_.size() ? predicate_tokens_[i] : added;
    // Base score: fraction of the predicate's surface-form tokens
    // present in the query remainder (raw name as a fallback).
    double score = 0.0;
    size_t hits = 0;
    if (!toks.surface.empty()) {
      for (const std::string& t : toks.surface) {
        if (in_query(t)) ++hits;
      }
      score = static_cast<double>(hits) /
              static_cast<double>(toks.surface.size());
    }
    for (const std::string& t : toks.name) {
      if (in_query(t)) score = std::max(score, 0.9);
    }
    if (score < 0.99) continue;
    // Tiebreakers among full matches: prefer longer surface matches
    // ("movies directed" beats "movies") and relations the linked
    // subject actually holds.
    score += 0.01 * static_cast<double>(hits);
    if (subject.valid() &&
        !kg_->triples().BySubjectPredicate(subject, meta.id).empty()) {
      score += 0.005;
    }
    if (score > best_score) {
      best_score = score;
      best = meta.id;
    }
  }
  return best_score >= 0.99 ? best : kg::PredicateId::Invalid();
}

QueryAnswerer::Answer QueryAnswerer::Ask(std::string_view query) const {
  Answer answer;
  (void)AskImpl(query, nullptr, &answer);
  return answer;
}

Result<QueryAnswerer::Answer> QueryAnswerer::Ask(
    std::string_view query, const RequestContext& ctx) const {
  Answer answer;
  SAGA_RETURN_IF_ERROR(AskImpl(query, &ctx, &answer));
  return answer;
}

Status QueryAnswerer::AskImpl(std::string_view query,
                              const RequestContext* ctx,
                              Answer* out) const {
  obs::ScopedSpan span("serving.qa.ask");
  obs::ScopedLatency timer(SAGA_LATENCY("serving.qa.ask_ns"));
  SAGA_COUNTER("serving.qa.queries").Add();
  Answer& answer = *out;
  if (ctx != nullptr) {
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.qa.annotate"));
  }

  // 1. Link the entity mention with full contextual annotation (the
  //    query text itself is the disambiguation context: "michael
  //    jordan stats" vs "michael jordan students").
  const std::vector<Annotation> annotations = annotator_.Annotate(query);
  if (annotations.empty()) {
    answer.explanation = "no entity mention recognized";
    return Status::OK();
  }
  const Annotation* subject_ann = &annotations[0];
  for (const Annotation& a : annotations) {
    if (a.mention.surface.size() > subject_ann->mention.surface.size()) {
      subject_ann = &a;
    }
  }
  answer.subject = subject_ann->entity;
  answer.subject_score = subject_ann->score;
  if (ctx != nullptr) {
    // Stage boundary: annotation (the expensive stage) is done.
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.qa.resolve"));
  }

  // 2. Resolve the relation from the tokens outside the mention span.
  std::vector<std::string> remainder;
  for (const text::Token& t : text::Tokenize(query)) {
    if (t.begin >= subject_ann->mention.begin &&
        t.end <= subject_ann->mention.end) {
      continue;
    }
    remainder.push_back(t.text);
  }
  answer.predicate = ResolvePredicate(remainder, answer.subject);
  answer.explanation = "\"" + subject_ann->mention.surface + "\" -> " +
                       kg_->catalog().name(answer.subject);
  if (!answer.predicate.valid()) {
    answer.explanation += " | no relation resolved";
    return Status::OK();
  }
  answer.explanation +=
      " | relation: " + kg_->ontology().predicate_name(answer.predicate);
  if (ctx != nullptr) {
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.qa.rank"));
  }

  // 3. Retrieve + rank facts.
  if (ranker_ != nullptr) {
    answer.facts = ranker_->Rank(answer.subject, answer.predicate);
  }
  if (answer.facts.empty()) {
    for (const kg::Value& v :
         kg_->ObjectsOf(answer.subject, answer.predicate)) {
      serving::FactRanker::RankedFact f;
      f.object = v;
      answer.facts.push_back(std::move(f));
    }
  }
  answer.answered = !answer.facts.empty();
  return Status::OK();
}

}  // namespace saga::annotation
