#ifndef SAGA_ANNOTATION_CONTEXT_RERANKER_H_
#define SAGA_ANNOTATION_CONTEXT_RERANKER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/types.h"
#include "common/result.h"
#include "kg/knowledge_graph.h"
#include "serving/kv_cache.h"
#include "text/hashing_vectorizer.h"

namespace saga::annotation {

/// Contextual entity disambiguation (§3): "Michael Jordan stats" links
/// to the basketball player, "Michael Jordan students" to the
/// professor. Each entity gets a textual-profile embedding built from
/// its name, description, types, and graph neighborhood; candidates are
/// scored by similarity between that profile and the mention's textual
/// context, blended with the popularity prior.
class ContextReranker {
 public:
  struct Options {
    double context_weight = 1.0;
    double prior_weight = 0.35;
    /// Characters of document text around the mention used as context.
    size_t context_window = 200;
    /// Distilled profile: name + type names only, skipping the graph
    /// neighborhood — the cheap model tier of §3.2 ("model distillation
    /// and compression ... to meet different price/performance SLAs").
    bool name_only_profiles = false;
  };

  struct Scored {
    Candidate candidate;
    double score = 0.0;
    double context_similarity = 0.0;
  };

  ContextReranker(const kg::KnowledgeGraph* kg);
  ContextReranker(const kg::KnowledgeGraph* kg, Options options);

  /// The textual profile of an entity: its ProfilePieces joined by
  /// single spaces.
  std::string EntityProfileText(kg::EntityId id) const;

  /// Precomputes every entity's profile embedding into the given cache
  /// (the §3.2 "precompute and cache in a low-latency KV store" step).
  Status PrecomputeProfiles(serving::EmbeddingKvCache* cache) const;

  /// Reranks candidates for a mention given the surrounding document
  /// text. When `cache` is non-null, profile vectors are fetched from
  /// it; otherwise they are computed on the fly (the expensive path the
  /// Fig-4 ablation measures).
  std::vector<Scored> Rerank(const std::vector<Candidate>& candidates,
                             std::string_view document_text,
                             const Mention& mention,
                             serving::EmbeddingKvCache* cache) const;

  /// The same scoring against an already embedded context window
  /// (`vectorizer().Embed(ContextWindow(...))`), so mentions that share
  /// a window embed it once.
  std::vector<Scored> Rerank(const std::vector<Candidate>& candidates,
                             const std::vector<float>& context_vec,
                             serving::EmbeddingKvCache* cache) const;

  /// The `context_window` bytes on either side of the mention, clipped
  /// to the document: [max(0, begin - w), min(n, end + w)).
  std::string_view ContextWindow(std::string_view document_text,
                                 const Mention& mention) const;

  const text::HashingVectorizer& vectorizer() const { return vectorizer_; }

 private:
  /// The profile's pieces, views into the KG: name, description, type
  /// names, then (unless name_only_profiles) up to 24 of the entity's
  /// facts as predicate surface form and, for an entity object, the
  /// neighbor's name.
  std::vector<std::string_view> ProfilePieces(kg::EntityId id) const;
  /// vectorizer().Embed(EntityProfileText(id)), embedded from the pieces
  /// without joining them.
  std::vector<float> ProfileVector(kg::EntityId id) const;

  const kg::KnowledgeGraph* kg_;
  Options options_;
  text::HashingVectorizer vectorizer_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_CONTEXT_RERANKER_H_
