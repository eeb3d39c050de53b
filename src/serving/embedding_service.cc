#include "serving/embedding_service.h"

#include <algorithm>
#include <chrono>

#include "ann/brute_force_index.h"
#include "ann/ivf_index.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace saga::serving {

namespace {

constexpr ann::Metric kMetric = ann::Metric::kCosine;

}  // namespace

EmbeddingService::EmbeddingService(embedding::EmbeddingStore store,
                                   const kg::KnowledgeGraph* kg)
    : EmbeddingService(std::move(store), kg, Options()) {}

EmbeddingService::EmbeddingService(embedding::EmbeddingStore store,
                                   const kg::KnowledgeGraph* kg,
                                   Options options)
    : store_(std::move(store)), kg_(kg), options_(options) {
  BuildIndexWithFallback();
  if (options_.enable_breaker) {
    ann_breaker_ =
        std::make_unique<CircuitBreaker>("serving.breaker.ann",
                                         options_.breaker);
  }
  if ((options_.hedge.enabled || options_.enable_breaker) &&
      UsesAcceleratedIndex()) {
    exact_backup_ = MakeIndex(IndexKind::kExact);
  }
  if (options_.hedge.enabled && exact_backup_ != nullptr) {
    hedge_pool_ =
        std::make_unique<ThreadPool>(std::max(1, options_.hedge.threads));
  }
}

std::unique_ptr<ann::VectorIndex> EmbeddingService::MakeIndex(
    IndexKind kind) const {
  std::unique_ptr<ann::VectorIndex> index;
  switch (kind) {
    case IndexKind::kExact:
      index = std::make_unique<ann::BruteForceIndex>(store_.dim(), kMetric);
      break;
    case IndexKind::kIvf: {
      ann::IvfIndex::Options ivf;
      ivf.num_lists = options_.ivf_lists;
      ivf.nprobe = options_.ivf_nprobe;
      index = std::make_unique<ann::IvfIndex>(store_.dim(), kMetric, ivf);
      break;
    }
  }
  for (kg::EntityId id : store_.Ids()) {
    index->Add(id.value(), *store_.Get(id));
  }
  index->Build();
  return index;
}

Status EmbeddingService::BuildIndexOnce(IndexKind kind) {
  // The fault point covers accelerated builds only, so the exact
  // fallback below can never be failed by injection.
  if (kind != IndexKind::kExact && Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("serving.index_build"));
  }
  index_ = MakeIndex(kind);
  return Status::OK();
}

void EmbeddingService::BuildIndexWithFallback() {
  RetryPolicy retry(options_.retry);
  const Status s = retry.Run(
      "serving.index_build",
      [&] { return BuildIndexOnce(options_.index); });
  if (s.ok()) return;
  // Degraded mode: serve exact brute-force results rather than not
  // serving at all.
  SAGA_LOG(Warning) << "accelerated index build failed (" << s
                    << "); serving degraded to exact search";
  degraded_ = true;
  SAGA_COUNTER("serving.embedding.degraded").Add();
  (void)BuildIndexOnce(IndexKind::kExact);
}

Result<const std::vector<float>*> EmbeddingService::Find(
    kg::EntityId id) const {
  const std::vector<float>* vec = store_.Get(id);
  if (vec == nullptr) {
    return Status::NotFound("no embedding for entity " +
                            std::to_string(id.value()));
  }
  return vec;
}

Result<std::vector<float>> EmbeddingService::GetEmbedding(
    kg::EntityId id) const {
  SAGA_ASSIGN_OR_RETURN(const std::vector<float>* vec, Find(id));
  return *vec;
}

Result<double> EmbeddingService::Similarity(kg::EntityId a,
                                            kg::EntityId b) const {
  SAGA_ASSIGN_OR_RETURN(const std::vector<float>* va, Find(a));
  SAGA_ASSIGN_OR_RETURN(const std::vector<float>* vb, Find(b));
  return ann::Similarity(kMetric, va->data(), vb->data(), va->size());
}

std::vector<double> EmbeddingService::BatchSimilarity(
    const std::vector<std::pair<kg::EntityId, kg::EntityId>>& pairs) const {
  std::vector<double> out;
  out.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    const std::vector<float>* va = store_.Get(a);
    const std::vector<float>* vb = store_.Get(b);
    out.push_back(va == nullptr || vb == nullptr
                      ? 0.0
                      : ann::Similarity(kMetric, va->data(), vb->data(),
                                        va->size()));
  }
  return out;
}

bool EmbeddingService::PassesTypeFilter(kg::EntityId id,
                                        kg::TypeId type) const {
  if (!type.valid() || kg_ == nullptr) return true;
  for (kg::TypeId has : kg_->catalog().record(id).types) {
    if (kg_->ontology().IsSubtypeOf(has, type)) return true;
  }
  return false;
}

Result<std::vector<std::pair<kg::EntityId, double>>>
EmbeddingService::TopKNeighbors(kg::EntityId id, size_t k,
                                kg::TypeId type_filter) const {
  return TopKNeighborsImpl(id, k, type_filter, nullptr);
}

Result<std::vector<std::pair<kg::EntityId, double>>>
EmbeddingService::TopKNeighbors(kg::EntityId id, size_t k,
                                kg::TypeId type_filter,
                                const RequestContext& ctx) const {
  return TopKNeighborsImpl(id, k, type_filter, &ctx);
}

Result<std::vector<std::pair<kg::EntityId, double>>>
EmbeddingService::TopKNeighborsImpl(kg::EntityId id, size_t k,
                                    kg::TypeId type_filter,
                                    const RequestContext* ctx) const {
  obs::ScopedSpan span("serving.embedding.topk_neighbors");
  obs::ScopedLatency timer(SAGA_LATENCY("serving.embedding.topk_ns"));
  if (ctx != nullptr) {
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.embedding.topk"));
  }
  SAGA_ASSIGN_OR_RETURN(const std::vector<float>* query, Find(id));
  SAGA_ASSIGN_OR_RETURN(auto hits,
                        TopKForVectorImpl(*query, k + 1, type_filter, ctx));
  std::vector<std::pair<kg::EntityId, double>> out;
  for (const auto& [e, sim] : hits) {
    if (e == id) continue;
    out.emplace_back(e, sim);
    if (out.size() == k) break;
  }
  return out;
}

Result<std::vector<std::pair<kg::EntityId, double>>>
EmbeddingService::TopKForVectorImpl(const std::vector<float>& query, size_t k,
                                    kg::TypeId type_filter,
                                    const RequestContext* ctx) const {
  obs::ScopedLatency timer(SAGA_LATENCY("serving.embedding.search_ns"));
  SAGA_COUNTER("serving.embedding.searches").Add();
  // Over-fetch when filtering so enough survivors remain.
  const size_t fetch = type_filter.valid() ? k * 8 + 16 : k;
  std::vector<ann::Neighbor> hits;
  if (ctx == nullptr) {
    hits = index_->Search(query, fetch);
  } else {
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.embedding.search"));
    SAGA_ASSIGN_OR_RETURN(hits, SearchWithPolicies(query, fetch, *ctx));
    // A correct answer after the deadline is still a failed request.
    SAGA_RETURN_IF_ERROR(ctx->Check("serving.embedding.search"));
  }
  std::vector<std::pair<kg::EntityId, double>> out;
  for (const ann::Neighbor& n : hits) {
    const kg::EntityId id(n.label);
    if (!PassesTypeFilter(id, type_filter)) continue;
    out.emplace_back(id, n.similarity);
    if (out.size() == k) break;
  }
  return out;
}

double EmbeddingService::HedgeDelayMs() const {
  // Without a fixed timer: a default until enough searches are
  // recorded, then their live p99 with a floor (p99 of a warm cache is
  // ~0).
  constexpr double kMinHedgeMs = 0.2;
  constexpr double kDefaultHedgeMs = 5.0;
  constexpr uint64_t kMinSamples = 50;
  if (options_.hedge.fixed_hedge_ms > 0) return options_.hedge.fixed_hedge_ms;
  const obs::LatencyHistogram& hist =
      SAGA_LATENCY("serving.embedding.search_ns");
  if (hist.Count() < kMinSamples) return kDefaultHedgeMs;
  return std::max(kMinHedgeMs, hist.PercentileNs(99.0) / 1e6);
}

void EmbeddingService::RecordAnnOutcome(const Status& s, double elapsed_ms,
                                        const RequestContext& ctx) const {
  if (ann_breaker_ == nullptr) return;
  const bool slow = options_.breaker_slow_call_ms > 0 &&
                    elapsed_ms > options_.breaker_slow_call_ms;
  if (CircuitBreaker::IsFailure(s) || slow || ctx.expired()) {
    ann_breaker_->RecordFailure();
  } else {
    ann_breaker_->RecordSuccess();
  }
}

Result<std::vector<ann::Neighbor>> EmbeddingService::SearchWithPolicies(
    const std::vector<float>& query, size_t fetch,
    const RequestContext& ctx) const {
  if (!UsesAcceleratedIndex()) {
    // Exact search is the ground truth: no breaker, no hedge, no
    // injected replica faults.
    return index_->Search(query, fetch);
  }
  if (ann_breaker_ != nullptr) {
    const Status allow = ann_breaker_->Allow();
    if (!allow.ok()) {
      // Open breaker: serve correct-but-slower exact results instead of
      // hammering the struggling index (and instead of failing).
      if (exact_backup_ != nullptr) {
        SAGA_COUNTER("serving.breaker.fallbacks").Add();
        return exact_backup_->Search(query, fetch);
      }
      return allow;
    }
  }
  if (hedge_pool_ != nullptr) {
    return HedgedSearch(query, fetch, ctx);
  }
  Stopwatch sw;
  Status s = Faults().armed() ? Faults().InjectOp("ann.search")
                              : Status::OK();
  std::vector<ann::Neighbor> hits;
  if (s.ok()) hits = index_->Search(query, fetch);
  RecordAnnOutcome(s, sw.ElapsedMillis(), ctx);
  if (!s.ok()) {
    if (exact_backup_ != nullptr) return exact_backup_->Search(query, fetch);
    return s;
  }
  return hits;
}

namespace {

/// First-response-wins rendezvous between the accelerated primary (on
/// the hedge pool) and the exact backup (inline on the caller).
struct HedgeState {
  std::mutex mu;
  std::condition_variable cv;
  bool primary_finished = false;
  Status primary_status;
  /// Set by whichever probe claims the win first.
  bool claimed = false;
  std::vector<ann::Neighbor> primary_hits;
};

}  // namespace

Result<std::vector<ann::Neighbor>> EmbeddingService::HedgedSearch(
    const std::vector<float>& query, size_t fetch,
    const RequestContext& ctx) const {
  auto st = std::make_shared<HedgeState>();
  // Raw pointer is safe: hedge_pool_ is declared after index_ and thus
  // destroyed (drained) before it.
  const ann::VectorIndex* idx = index_.get();
  hedge_pool_->Submit([st, idx, query, fetch] {
    Status s = Faults().armed() ? Faults().InjectOp("ann.search")
                                : Status::OK();
    std::vector<ann::Neighbor> hits;
    if (s.ok()) hits = idx->Search(query, fetch);
    std::lock_guard<std::mutex> lock(st->mu);
    st->primary_finished = true;
    st->primary_status = s;
    if (s.ok() && !st->claimed) {
      st->claimed = true;
      st->primary_hits = std::move(hits);
    }
    st->cv.notify_all();
  });

  double wait_ms = HedgeDelayMs();
  if (!ctx.deadline().infinite()) {
    wait_ms = std::min(wait_ms, std::max(0.0, ctx.deadline().RemainingMillis()));
  }
  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->cv.wait_for(lock,
                    std::chrono::duration<double, std::milli>(wait_ms),
                    [&] { return st->primary_finished; });
    if (st->primary_finished && st->primary_status.ok()) {
      RecordAnnOutcome(Status::OK(), 0.0, ctx);
      return std::move(st->primary_hits);
    }
  }
  // Primary overran the hedge timer (or failed): one latency SLO miss
  // for the breaker, and the exact backup races it from here.
  SAGA_COUNTER("serving.hedge.fired").Add();
  RecordAnnOutcome(Status::DeadlineExceeded("ann primary overran hedge timer"),
                   wait_ms, ctx);
  std::vector<ann::Neighbor> backup = exact_backup_->Search(query, fetch);
  std::lock_guard<std::mutex> lock(st->mu);
  if (st->claimed) {
    // Primary slipped in while the backup was scanning: it responded
    // first, it wins.
    return std::move(st->primary_hits);
  }
  st->claimed = true;
  SAGA_COUNTER("serving.hedge.backup_wins").Add();
  return backup;
}

}  // namespace saga::serving
