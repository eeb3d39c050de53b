#include "annotation/context_reranker.h"

#include <algorithm>

namespace saga::annotation {

ContextReranker::ContextReranker(const kg::KnowledgeGraph* kg)
    : ContextReranker(kg, Options()) {}

ContextReranker::ContextReranker(const kg::KnowledgeGraph* kg,
                                 Options options)
    : kg_(kg), options_(options) {}

std::vector<std::string_view> ContextReranker::ProfilePieces(
    kg::EntityId id) const {
  const kg::EntityRecord& rec = kg_->catalog().record(id);
  std::vector<std::string_view> pieces;
  pieces.reserve(2 + rec.types.size() + 2 * 24);
  pieces.push_back(rec.canonical_name);
  pieces.push_back(rec.description);
  for (kg::TypeId t : rec.types) {
    pieces.push_back(kg_->ontology().type_name(t));
  }
  if (options_.name_only_profiles) return pieces;  // distilled tier
  // Graph neighborhood: names of linked entities carry exactly the
  // context words that disambiguate namesakes (team names for the
  // player, university names for the professor).
  size_t neighbors = 0;
  for (kg::TripleIdx idx : kg_->triples().BySubject(id)) {
    const kg::Triple& t = kg_->triples().triple(idx);
    pieces.push_back(kg_->ontology().predicate(t.predicate).surface_form);
    if (t.object.is_entity()) {
      pieces.push_back(kg_->catalog().name(t.object.entity()));
    }
    if (++neighbors >= 24) break;
  }
  return pieces;
}

std::string ContextReranker::EntityProfileText(kg::EntityId id) const {
  const std::vector<std::string_view> pieces = ProfilePieces(id);
  std::string profile(pieces[0]);
  for (size_t i = 1; i < pieces.size(); ++i) {
    profile += ' ';
    profile += pieces[i];
  }
  return profile;
}

std::vector<float> ContextReranker::ProfileVector(kg::EntityId id) const {
  return vectorizer_.EmbedPieces(ProfilePieces(id));
}

Status ContextReranker::PrecomputeProfiles(
    serving::EmbeddingKvCache* cache) const {
  for (const auto& rec : kg_->catalog().records()) {
    SAGA_RETURN_IF_ERROR(cache->Put(rec.id, ProfileVector(rec.id)));
  }
  SAGA_RETURN_IF_ERROR(cache->kv()->Flush());
  return Status::OK();
}

std::string_view ContextReranker::ContextWindow(
    std::string_view document_text, const Mention& mention) const {
  const size_t window = options_.context_window;
  const size_t begin = mention.begin > window ? mention.begin - window : 0;
  const size_t end =
      std::min(document_text.size(), mention.end + window);
  return document_text.substr(begin, end - begin);
}

std::vector<ContextReranker::Scored> ContextReranker::Rerank(
    const std::vector<Candidate>& candidates,
    std::string_view document_text, const Mention& mention,
    serving::EmbeddingKvCache* cache) const {
  return Rerank(candidates,
                vectorizer_.Embed(ContextWindow(document_text, mention)),
                cache);
}

std::vector<ContextReranker::Scored> ContextReranker::Rerank(
    const std::vector<Candidate>& candidates,
    const std::vector<float>& context_vec,
    serving::EmbeddingKvCache* cache) const {
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    Scored s;
    s.candidate = c;
    std::vector<float> profile;
    if (cache != nullptr) {
      auto cached = cache->Get(c.entity);
      profile = cached.ok() ? std::move(cached).value()
                            : ProfileVector(c.entity);
    } else {
      profile = ProfileVector(c.entity);
    }
    s.context_similarity =
        text::HashingVectorizer::Cosine(context_vec, profile);
    s.score = options_.context_weight * s.context_similarity +
              options_.prior_weight * c.prior;
    scored.push_back(std::move(s));
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.candidate.entity < b.candidate.entity;
  });
  return scored;
}

}  // namespace saga::annotation
