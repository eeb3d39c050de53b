// The serving stack under test, built only from the library's public
// constructors, and the timing of each set-up stage.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <string>

#include "annotation/annotator.h"
#include "annotation/query_answering.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/admission_controller.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/kv_cache.h"
#include "serving/related_entities.h"
#include "websim/corpus_generator.h"

namespace perfbench {

struct StackConfig {
  /// Also build the `link` tier: profile cache, corpus and annotator.
  bool with_link = false;
  /// Directory for the profile cache's KvStore (link only).
  std::string cache_dir;
  size_t cache_bytes = 2 << 20;
};

/// Wall time of each set-up stage, in seconds.
struct SetupTimes {
  double kg_s = 0;        // KG generation and the training view
  double train_s = 0;     // DistMult training
  double serving_s = 0;   // services, exact index, admission
  double profiles_s = 0;  // link: profile precompute into the cache
  double corpus_s = 0;    // link: web corpus generation
  double total() const {
    return kg_s + train_s + serving_s + profiles_s + corpus_s;
  }
};

struct Stack {
  saga::kg::GeneratedKg gen;
  saga::graph_engine::GraphView view;
  saga::embedding::TrainedEmbeddings emb;
  std::unique_ptr<saga::serving::EmbeddingService> embeddings;
  std::unique_ptr<saga::serving::RelatedEntitiesService> related;
  std::unique_ptr<saga::serving::FactRanker> ranker;
  std::unique_ptr<saga::annotation::QueryAnswerer> qa;
  std::unique_ptr<saga::serving::AdmissionController> admission;
  // Link tier (null / empty unless StackConfig::with_link).
  std::unique_ptr<saga::serving::EmbeddingKvCache> cache;
  std::unique_ptr<saga::annotation::Annotator> linker;
  saga::websim::WebCorpus corpus;
};

/// Builds the stack, recording each stage's time in `times`. Aborts
/// the process with a message if a library call fails.
std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  SetupTimes* times);

/// The annotator options of the `link` workload: accurate preset,
/// every mention reranked through the profile cache.
saga::annotation::Annotator::Options LinkAnnotatorOptions();

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
