#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "ann/brute_force_index.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "graph_engine/ppr.h"
#include "loadgen.h"
#include "streams.h"

namespace perfbench {

namespace kg = saga::kg;
namespace obs = saga::obs;

namespace {

constexpr size_t kK = 10;  // TopK and Related list length
constexpr size_t kPprReferenceEntities = 128;

bool ValidEntity(const kg::KnowledgeGraph& g, kg::EntityId e) {
  return e.valid() && e.value() < g.catalog().size();
}

bool PassesType(const kg::KnowledgeGraph& g, kg::EntityId e, kg::TypeId t) {
  if (!t.valid()) return true;
  for (kg::TypeId has : g.catalog().record(e).types) {
    if (g.ontology().IsSubtypeOf(has, t)) return true;
  }
  return false;
}

/// Shared check for ranked entity lists: valid ids, no duplicates, not
/// the query entity, at most `k` long, scores non-increasing.
bool CheckRankedList(const kg::KnowledgeGraph& g, kg::EntityId query,
                     const std::vector<std::pair<kg::EntityId, double>>& hits,
                     size_t k) {
  if (hits.size() > k) return false;
  std::set<kg::EntityId> seen;
  for (size_t i = 0; i < hits.size(); ++i) {
    const kg::EntityId e = hits[i].first;
    if (!ValidEntity(g, e) || e == query || !seen.insert(e).second) {
      return false;
    }
    if (i > 0 && hits[i].second > hits[i - 1].second) return false;
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A served request: the root span, its deadline-carrying context and
/// its admission ticket. Members are released in reverse order, so the
/// ticket returns its slot before the root span closes.
class Request {
 public:
  Request(saga::serving::AdmissionController* admission,
          saga::Deadline deadline)
      : root_("bench.request"), ctx_(deadline) {
    ctx_.CaptureTrace();
    obs::ScopedSpan span("bench.admit");
    ticket_ = admission->TryAdmit(ctx_);
  }
  bool admitted() const { return ticket_.ok(); }
  const saga::RequestContext& ctx() const { return ctx_; }

 private:
  obs::ScopedSpan root_;
  saga::RequestContext ctx_;
  saga::serving::AdmissionController::Ticket ticket_;
};

/// Sum and count of a library latency histogram, for deltas.
struct HistSnapshot {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  static HistSnapshot Of(const char* name) {
    auto& h = obs::Registry::Global().latency(name);
    return {h.Count(), h.SumNs()};
  }
};

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name).Value();
}

/// Annotation counters shared by `ask` (through Ask and its replay) and
/// `link`.
struct AnnotationBaseline {
  HistSnapshot calls;
  int64_t mentions = 0;
  int64_t annotations = 0;
  void Mark() {
    calls = HistSnapshot::Of("annotation.annotator.annotate_ns");
    mentions = CounterValue("annotation.annotator.mentions");
    annotations = CounterValue("annotation.annotator.annotations");
  }
  void Report(LayerValues* out) const {
    const double n = static_cast<double>(
        HistSnapshot::Of("annotation.annotator.annotate_ns").count -
        calls.count);
    (*out)["annotation.mentions_per_call"] = Ratio(
        static_cast<double>(CounterValue("annotation.annotator.mentions") -
                            mentions),
        n);
    (*out)["annotation.annotations_per_call"] = Ratio(
        static_cast<double>(
            CounterValue("annotation.annotator.annotations") - annotations),
        n);
  }
};

// ---------------------------------------------------------------- ask

class AskWorkload : public Workload {
 public:
  AskWorkload(Stack* s, const WorkloadParams& p)
      : s_(s),
        stream_(AskStream(s->gen, p.seed, size_t{1} << 18)),
        // Same construction as the QueryAnswerer's own annotator, so
        // the replay repeats exactly the annotation Ask performs.
        replay_annotator_(&s->gen.kg, nullptr) {}

  uint64_t stream_hash() const override { return StreamHash(stream_); }

  Served Serve(size_t i, saga::Deadline deadline) override {
    const AskRequest& r = stream_[i % stream_.size()];
    saga::Result<saga::annotation::QueryAnswerer::Answer> answer =
        saga::Status::ResourceExhausted("not admitted");
    {
      Request req(s_->admission.get(), deadline);
      if (req.admitted()) {
        obs::ScopedSpan span("bench.ask");
        answer = s_->qa->Ask(r.query, req.ctx());
      }
    }
    Served out;
    out.done = Clock::now();
    if (!answer.ok()) return out;
    out.ok = true;
    const auto& a = answer.value();
    out.mismatch = !CheckAnswer(a);
    const bool correct = r.subject.valid() ? RightAnswer(r, a) : !a.answered;
    answered_.fetch_add(1, std::memory_order_relaxed);
    if (correct) correct_.fetch_add(1, std::memory_order_relaxed);
    if (replays()) Replay(r, a);
    return out;
  }

  double Quality() override {
    return Ratio(static_cast<double>(correct_.load()),
                 static_cast<double>(answered_.load()));
  }

  void MarkLayerBaseline() override { annotation_.Mark(); }

  void Layers(LayerValues* out) override {
    annotation_.Report(out);
    (*out)["serving.ranker.facts_per_call"] =
        Ratio(static_cast<double>(facts_.load()),
              static_cast<double>(rank_calls_.load()));
  }

 private:
  /// Facts must belong to the answered subject and predicate.
  bool CheckAnswer(const saga::annotation::QueryAnswerer::Answer& a) const {
    const kg::KnowledgeGraph& g = s_->gen.kg;
    if (!a.answered) return a.facts.empty();
    if (!ValidEntity(g, a.subject) || !a.predicate.valid()) return false;
    const std::vector<kg::Value> truth = g.ObjectsOf(a.subject, a.predicate);
    for (const auto& f : a.facts) {
      if (std::find(truth.begin(), truth.end(), f.object) == truth.end()) {
        return false;
      }
    }
    return true;
  }

  /// The intended relation, on the generated subject or on a namesake
  /// that also holds it (the query cannot tell those apart).
  bool RightAnswer(const AskRequest& r,
                   const saga::annotation::QueryAnswerer::Answer& a) const {
    if (a.predicate != r.predicate) return false;
    if (a.subject == r.subject) return true;
    const kg::KnowledgeGraph& g = s_->gen.kg;
    return ValidEntity(g, a.subject) &&
           g.catalog().name(a.subject) == g.catalog().name(r.subject) &&
           !g.triples().BySubjectPredicate(a.subject, r.predicate).empty();
  }

  /// Annotate and Rank run only inside Ask; repeat them with the same
  /// inputs in spans outside the request so their time can be
  /// subtracted from Ask's.
  void Replay(const AskRequest& r,
              const saga::annotation::QueryAnswerer::Answer& a) {
    {
      obs::ScopedSpan span("bench.replay.annotate");
      (void)replay_annotator_.Annotate(r.query);
    }
    if (a.subject.valid() && a.predicate.valid()) {
      size_t facts = 0;
      {
        obs::ScopedSpan span("bench.replay.rank");
        facts = s_->ranker->Rank(a.subject, a.predicate).size();
      }
      rank_calls_.fetch_add(1, std::memory_order_relaxed);
      facts_.fetch_add(facts, std::memory_order_relaxed);
    }
  }

  Stack* s_;
  std::vector<AskRequest> stream_;
  saga::annotation::Annotator replay_annotator_;
  std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> correct_{0};
  std::atomic<uint64_t> rank_calls_{0};
  std::atomic<uint64_t> facts_{0};
  AnnotationBaseline annotation_;
};

// ------------------------------------------------------------ related

class RelatedWorkload : public Workload {
 public:
  RelatedWorkload(Stack* s, const WorkloadParams& p)
      : s_(s),
        p_(p),
        stream_(RelatedStream(s->gen, s->view, p.seed, size_t{1} << 16)),
        replay_ppr_(&s->view),
        replay_index_(s->embeddings->dim(), saga::ann::Metric::kCosine) {
    // The tight PPR reference costs ~50 ms per entity, so Related is
    // scored on the entities the stream asks for most (about half of
    // all requests under the Zipf skew).
    std::unordered_map<kg::EntityId, uint64_t> asks;
    for (const RelatedRequest& r : stream_) ++asks[r.entity];
    std::vector<std::pair<uint64_t, kg::EntityId>> by_count;
    for (const auto& [e, n] : asks) by_count.emplace_back(n, e);
    const size_t top = std::min(kPprReferenceEntities, by_count.size());
    std::partial_sort(by_count.begin(), by_count.begin() + top, by_count.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    for (size_t j = 0; j < top; ++j) ppr_scored_.insert(by_count[j].second);
    // Replica of the service's exact index (same constructor and
    // insertion order) for the ann.search replay, and the flat matrix
    // of the scalar reference scan.
    const auto& store = s->embeddings->store();
    dim_ = static_cast<size_t>(store.dim());
    for (kg::EntityId id : store.Ids()) {
      const std::vector<float>& v = *store.Get(id);
      replay_index_.Add(id.value(), v);
      ids_.push_back(id);
      double n2 = 0;
      for (float x : v) {
        matrix_.push_back(x);
        n2 += static_cast<double>(x) * x;
      }
      norms_.push_back(std::sqrt(n2));
    }
  }

  uint64_t stream_hash() const override { return StreamHash(stream_); }

  Served Serve(size_t i, saga::Deadline deadline) override {
    const RelatedRequest& r = stream_[i % stream_.size()];
    using Hits = std::vector<std::pair<kg::EntityId, double>>;
    saga::Result<Hits> topk = saga::Status::ResourceExhausted("not admitted");
    saga::Result<Hits> related = topk;
    {
      Request req(s_->admission.get(), deadline);
      if (req.admitted()) {
        {
          obs::ScopedSpan span("bench.topk");
          topk = s_->embeddings->TopKNeighbors(r.entity, kK,
                                               kg::TypeId::Invalid(), req.ctx());
        }
        if (topk.ok()) {
          obs::ScopedSpan span("bench.related");
          related = s_->related->Related(r.entity, kK, r.type_filter, req.ctx());
        }
      }
    }
    Served out;
    out.done = Clock::now();
    if (!topk.ok() || !related.ok()) return out;
    out.ok = true;
    const kg::KnowledgeGraph& g = s_->gen.kg;
    out.mismatch = topk->size() != std::min(kK, ids_.size() - 1) ||
                   !CheckRankedList(g, r.entity, *topk, kK) ||
                   !CheckRankedList(g, r.entity, *related, kK);
    for (const auto& [e, score] : *related) {
      if (!PassesType(g, e, r.type_filter)) out.mismatch = true;
    }
    Remember(r, *topk, *related);
    if (replays()) Replay(r);
    return out;
  }

  double Quality() override {
    ComputeReferences();
    return 0.5 * topk_recall_ + 0.5 * related_overlap_;
  }

  void Layers(LayerValues* out) override {
    ComputeReferences();
    const double n = static_cast<double>(ids_.size());
    (*out)["ann.vectors_scanned_per_query"] = n;
    (*out)["ann.bytes_per_query"] = n * static_cast<double>(dim_) * 4.0;
    (*out)["ann.recall_at_10"] = topk_recall_;
    (*out)["graph_engine.ppr_nodes_touched"] =
        Ratio(static_cast<double>(ppr_nodes_.load()),
              static_cast<double>(ppr_calls_.load()));
  }

 private:
  /// First answer per entity (answers are deterministic per entity)
  /// and how often it was asked; scored after the run.
  struct Seen {
    kg::TypeId filter;
    std::vector<kg::EntityId> topk;
    std::vector<kg::EntityId> related;
    uint64_t count = 0;
  };

  void Remember(const RelatedRequest& r,
                const std::vector<std::pair<kg::EntityId, double>>& topk,
                const std::vector<std::pair<kg::EntityId, double>>& related) {
    std::lock_guard<std::mutex> lock(seen_mu_);
    auto [it, inserted] = seen_.try_emplace(r.entity);
    if (inserted) {
      it->second.filter = r.type_filter;
      for (const auto& h : topk) it->second.topk.push_back(h.first);
      for (const auto& h : related) it->second.related.push_back(h.first);
    }
    ++it->second.count;
  }

  /// The ANN search runs only inside TopKNeighbors and PPR only inside
  /// Related; repeat both with the same inputs outside the request.
  void Replay(const RelatedRequest& r) {
    auto query = s_->embeddings->GetEmbedding(r.entity);
    if (query.ok()) {
      obs::ScopedSpan span("bench.replay.ann_search");
      (void)replay_index_.Search(*query, kK + 1);
    }
    const uint32_t local = s_->view.local_entity(r.entity);
    if (local == saga::graph_engine::GraphView::kNotInView) return;
    const saga::RequestContext ctx(
        saga::Deadline::AfterMillis(p_.deadline_ms));
    size_t touched = 0;
    {
      obs::ScopedSpan span("bench.replay.ppr");
      auto ppr = replay_ppr_.Ppr(local, ctx);
      if (ppr.ok()) touched = ppr->size();
    }
    ppr_calls_.fetch_add(1, std::memory_order_relaxed);
    ppr_nodes_.fetch_add(touched, std::memory_order_relaxed);
  }

  /// Scalar exact cosine scan: the k nearest entities other than `e`.
  std::vector<kg::EntityId> ExactTopK(kg::EntityId e) const {
    const std::vector<float>& q = *s_->embeddings->store().Get(e);
    double qn = 0;
    for (float x : q) qn += static_cast<double>(x) * x;
    qn = std::sqrt(qn);
    std::vector<std::pair<double, uint64_t>> scored;
    scored.reserve(ids_.size());
    for (size_t j = 0; j < ids_.size(); ++j) {
      if (ids_[j] == e) continue;
      double dot = 0;
      const float* row = &matrix_[j * dim_];
      for (size_t d = 0; d < dim_; ++d) dot += static_cast<double>(q[d]) * row[d];
      const double den = qn * norms_[j];
      scored.emplace_back(den > 0 ? dot / den : 0.0, ids_[j].value());
    }
    const size_t k = std::min(kK, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    std::vector<kg::EntityId> out;
    for (size_t j = 0; j < k; ++j) out.emplace_back(scored[j].second);
    return out;
  }

  /// Related in PPR mode with a 100x tighter push threshold, filtered
  /// exactly as the service filters.
  std::vector<kg::EntityId> TightRelated(
      const saga::graph_engine::PprEngine& tight, kg::EntityId e,
      kg::TypeId filter) const {
    const uint32_t local = s_->view.local_entity(e);
    std::vector<kg::EntityId> out;
    if (local == saga::graph_engine::GraphView::kNotInView) return out;
    const size_t fetch = kK + 1 + 8;  // the service's over-fetch
    for (const auto& [l, score] : tight.TopKRelated(local, fetch * 8 + 16)) {
      const kg::EntityId x = s_->view.global_entity(l);
      if (!PassesType(s_->gen.kg, x, filter)) continue;
      if (x != e) out.push_back(x);
      if (out.size() == kK) break;
    }
    return out;
  }

  static double Overlap(const std::vector<kg::EntityId>& got,
                        const std::vector<kg::EntityId>& ref) {
    size_t hit = 0;
    for (kg::EntityId e : ref) {
      if (std::find(got.begin(), got.end(), e) != got.end()) ++hit;
    }
    return Ratio(static_cast<double>(hit), static_cast<double>(ref.size()));
  }

  /// Scores every remembered answer against the references, on up to
  /// four threads (after the clock has stopped).
  void ComputeReferences() {
    if (references_done_) return;
    references_done_ = true;
    std::vector<const std::pair<const kg::EntityId, Seen>*> items;
    for (const auto& kv : seen_) items.push_back(&kv);
    saga::graph_engine::PprEngine::Options tight_opts;
    tight_opts.epsilon /= 100.0;
    tight_opts.max_pushes *= 100;
    const saga::graph_engine::PprEngine tight(&s_->view, tight_opts);
    std::vector<double> recall(items.size(), 0.0);
    std::vector<double> overlap(items.size(), -1.0);
    ParallelFor(items.size(), [&](size_t j) {
      const auto& [e, seen] = *items[j];
      recall[j] = Overlap(seen.topk, ExactTopK(e));
      if (!ppr_scored_.count(e)) return;
      const auto ref = TightRelated(tight, e, seen.filter);
      if (!ref.empty()) overlap[j] = Overlap(seen.related, ref);
    });
    double rw = 0, rs = 0, ow = 0, os = 0;
    for (size_t j = 0; j < items.size(); ++j) {
      const double w = static_cast<double>(items[j]->second.count);
      rw += w;
      rs += w * recall[j];
      if (overlap[j] >= 0) {
        ow += w;
        os += w * overlap[j];
      }
    }
    topk_recall_ = Ratio(rs, rw);
    related_overlap_ = Ratio(os, ow);
  }

  Stack* s_;
  WorkloadParams p_;
  std::vector<RelatedRequest> stream_;
  saga::graph_engine::PprEngine replay_ppr_;
  saga::ann::BruteForceIndex replay_index_;
  size_t dim_ = 0;
  std::vector<kg::EntityId> ids_;
  std::vector<float> matrix_;
  std::vector<double> norms_;
  std::set<kg::EntityId> ppr_scored_;
  std::mutex seen_mu_;
  std::unordered_map<kg::EntityId, Seen> seen_;
  std::atomic<uint64_t> ppr_calls_{0};
  std::atomic<uint64_t> ppr_nodes_{0};
  bool references_done_ = false;
  double topk_recall_ = 0;
  double related_overlap_ = 0;
};

// --------------------------------------------------------------- link

class LinkWorkload : public Workload {
 public:
  LinkWorkload(Stack* s, const WorkloadParams& p)
      : s_(s),
        p_(p),
        stream_(LinkStream(s->corpus, p.seed, size_t{1} << 16)),
        // Enough refreshes for the whole run, so versions never repeat.
        writes_(WriteStream(s->gen, p.seed,
                            static_cast<size_t>(p.writer_rate *
                                                (p.run_seconds + 10.0)))) {
    const auto& reranker = s->linker->reranker();
    for (const WriteRequest& w : writes_) {
      if (profiles_.count(w.entity)) continue;
      Profile& prof = profiles_[w.entity];
      prof.vec = reranker.vectorizer().Embed(reranker.EntityProfileText(w.entity));
      for (size_t d = 0; d < prof.vec.size(); ++d) {
        if (prof.vec[d] == 0.0f) prof.zeros.push_back(d);
      }
    }
  }

  ~LinkWorkload() override { StopBackground(); }

  uint64_t stream_hash() const override {
    return StreamHash(stream_) ^ (StreamHash(writes_) * 0x9E3779B97F4A7C15ull);
  }

  Served Serve(size_t i, saga::Deadline deadline) override {
    const saga::websim::WebDocument& doc =
        s_->corpus.doc(stream_[i % stream_.size()]);
    std::vector<saga::annotation::Annotation> anns;
    bool admitted = false;
    bool late = false;
    {
      Request req(s_->admission.get(), deadline);
      admitted = req.admitted();
      if (admitted) {
        obs::ScopedSpan span("bench.annotate");
        anns = s_->linker->Annotate(doc.body);
      }
      // Annotate takes no deadline; a response past it is a failure.
      late = req.ctx().expired();
    }
    Served out;
    out.done = Clock::now();
    if (!admitted || late) return out;
    out.ok = true;
    out.mismatch = !CheckAnnotations(doc, anns);
    Score(doc, anns);
    return out;
  }

  void StartBackground() override {
    if (writer_.joinable() || p_.writer_rate <= 0) return;
    stop_ = false;
    writer_ = std::thread([this] { WriterLoop(); });
  }

  void StopBackground() override {
    if (!writer_.joinable()) return;
    stop_ = true;
    writer_.join();
  }

  uint64_t FinalChecks() override {
    StopBackground();
    // Every refreshed profile must read back as its last acknowledged
    // write, byte for byte.
    uint64_t bad = 0;
    for (const auto& [e, version] : acked_) {
      auto got = s_->cache->Get(e);
      const std::vector<float> want = Refresh(e, version);
      if (!got.ok() || got->size() != want.size() ||
          std::memcmp(got->data(), want.data(), want.size() * sizeof(float)) != 0) {
        ++bad;
      }
    }
    if (bad > 0) {
      std::fprintf(stderr, "perfbench: %llu of %zu refreshed profiles read "
                   "back stale or wrong\n",
                   static_cast<unsigned long long>(bad), acked_.size());
    }
    // A cache miss means the reranker silently recomputed a profile
    // instead of reading the precomputed one.
    const uint64_t misses = s_->cache->stats().misses;
    if (misses > 0) {
      std::fprintf(stderr, "perfbench: %llu profile cache misses\n",
                   static_cast<unsigned long long>(misses));
    }
    return bad + misses;
  }

  double Quality() override {
    const double tp = static_cast<double>(tp_.load());
    const double den = 2 * tp + static_cast<double>(fp_.load() + fn_.load());
    return Ratio(2 * tp, den);
  }

  void MarkLayerBaseline() override {
    annotation_.Mark();
    cache_base_ = s_->cache->stats();
    get_base_ = HistSnapshot::Of("serving.kv_cache.get_ns");
    const auto& st = s_->cache->kv()->stats();
    kv_base_ = {st.gets.load(), st.sstable_probes.load(), st.bloom_skips.load(),
                st.flushes.load(), st.bytes_flushed.load(),
                st.stall_rejects.load()};
    docs_base_ = docs_.load();
  }

  void Layers(LayerValues* out) override {
    annotation_.Report(out);
    const auto cs = s_->cache->stats();
    const double mem = static_cast<double>(cs.memory_hits - cache_base_.memory_hits);
    const double disk = static_cast<double>(cs.disk_hits - cache_base_.disk_hits);
    const double miss = static_cast<double>(cs.misses - cache_base_.misses);
    const double lookups = mem + disk + miss;
    const HistSnapshot gets = HistSnapshot::Of("serving.kv_cache.get_ns");
    (*out)["serving.kv_cache.get_us"] =
        Ratio(static_cast<double>(gets.sum_ns - get_base_.sum_ns) / 1e3,
              static_cast<double>(gets.count - get_base_.count));
    (*out)["serving.kv_cache.gets_per_doc"] =
        Ratio(lookups, static_cast<double>(docs_.load() - docs_base_));
    (*out)["serving.kv_cache.memory_hit_ratio"] = Ratio(mem, lookups);
    (*out)["serving.kv_cache.disk_hit_ratio"] = Ratio(disk, lookups);
    (*out)["serving.kv_cache.put_us"] =
        Ratio(static_cast<double>(put_ns_) / 1e3, static_cast<double>(puts_));
    saga::storage::KvStore* kv = s_->cache->kv();
    const auto& st = kv->stats();
    (*out)["storage.kv.sstables"] = static_cast<double>(kv->num_sstables());
    (*out)["storage.kv.probes_per_get"] =
        Ratio(static_cast<double>(st.sstable_probes.load() - kv_base_.probes),
              static_cast<double>(st.gets.load() - kv_base_.gets));
    const double skips = static_cast<double>(st.bloom_skips.load() - kv_base_.skips);
    (*out)["storage.kv.bloom_skip_ratio"] = Ratio(
        skips, skips + static_cast<double>(st.sstable_probes.load() - kv_base_.probes));
    (*out)["storage.kv.flushes"] =
        static_cast<double>(st.flushes.load() - kv_base_.flushes);
    // User bytes are the profile payloads the writer asked to store.
    (*out)["storage.kv.flush_bytes_per_user_byte"] =
        Ratio(static_cast<double>(st.bytes_flushed.load() - kv_base_.flushed),
              static_cast<double>(user_bytes_));
    (*out)["storage.kv.imm_memtables_max"] = static_cast<double>(imm_max_);
    (*out)["storage.kv.stall_rejects"] =
        static_cast<double>(st.stall_rejects.load() - kv_base_.stalls);
    (*out)["write_p99_ms"] = Percentile(write_latency_ms_, 0.99);
  }

  Tally BackgroundTally() const override {
    return {write_attempts_, write_failures_};
  }

 private:
  struct Profile {
    std::vector<float> vec;
    std::vector<size_t> zeros;  // components that are exactly 0
  };

  /// Version `v` of a profile: the true vector with the sign of its
  /// zero components set from the bits of `v`. The reranker scores
  /// with a plain dot product, so a scaled vector would change its
  /// scores; -0.0 and +0.0 contribute identically to every dot
  /// product, so annotation output cannot move while every version's
  /// bytes differ.
  std::vector<float> Refresh(kg::EntityId e, uint32_t v) const {
    const Profile& p = profiles_.at(e);
    std::vector<float> out = p.vec;
    for (size_t b = 0; b < p.zeros.size() && b < 32; ++b) {
      if ((v >> b) & 1u) out[p.zeros[b]] = -0.0f;
    }
    return out;
  }

  void WriterLoop() {
    const auto start = Clock::now();
    const auto gap = std::chrono::duration<double>(1.0 / p_.writer_rate);
    for (size_t k = 0; k < writes_.size() && !stop_; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(k));
      // Sleeps rather than spins: the writer is light and keeps no CPU
      // from the readers between its Puts.
      std::this_thread::sleep_until(due);
      const WriteRequest& w = writes_[k];
      const Profile& prof = profiles_.at(w.entity);
      if (w.version >= (uint64_t{1} << std::min<size_t>(prof.zeros.size(), 32))) {
        continue;  // no distinct bytes left for this entity (never at these sizes)
      }
      const std::vector<float> vec = Refresh(w.entity, w.version);
      ++write_attempts_;
      const auto t0 = Clock::now();
      const saga::Status s = s_->cache->Put(w.entity, vec);
      const auto t1 = Clock::now();
      if (!s.ok()) {
        ++write_failures_;
        continue;
      }
      acked_[w.entity] = w.version;
      ++puts_;
      put_ns_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      user_bytes_ += vec.size() * sizeof(float);
      write_latency_ms_.push_back(
          std::chrono::duration<double, std::milli>(t1 - due).count());
      imm_max_ = std::max(imm_max_, s_->cache->kv()->imm_memtables());
    }
  }

  bool CheckAnnotations(const saga::websim::WebDocument& doc,
                        const std::vector<saga::annotation::Annotation>& anns) const {
    size_t prev_end = 0;
    for (const auto& a : anns) {
      const auto& m = a.mention;
      if (m.begin < prev_end || m.begin >= m.end || m.end > doc.body.size() ||
          doc.body.compare(m.begin, m.end - m.begin, m.surface) != 0 ||
          !ValidEntity(s_->gen.kg, a.entity)) {
        return false;
      }
      prev_end = m.end;
    }
    return true;
  }

  void Score(const saga::websim::WebDocument& doc,
             const std::vector<saga::annotation::Annotation>& anns) {
    using Key = std::tuple<size_t, size_t, uint64_t>;
    std::set<Key> predicted, gold;
    for (const auto& a : anns) {
      predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
    }
    for (const auto& g : doc.gold_mentions) {
      gold.insert({g.begin, g.end, g.entity.value()});
    }
    uint64_t tp = 0;
    for (const Key& k : predicted) tp += gold.count(k);
    tp_.fetch_add(tp, std::memory_order_relaxed);
    fp_.fetch_add(predicted.size() - tp, std::memory_order_relaxed);
    fn_.fetch_add(gold.size() - tp, std::memory_order_relaxed);
    docs_.fetch_add(1, std::memory_order_relaxed);
  }

  struct KvBase {
    uint64_t gets = 0, probes = 0, skips = 0, flushes = 0, flushed = 0,
             stalls = 0;
  };

  Stack* s_;
  WorkloadParams p_;
  std::vector<saga::websim::DocId> stream_;
  std::vector<WriteRequest> writes_;
  std::unordered_map<kg::EntityId, Profile> profiles_;
  std::atomic<uint64_t> tp_{0}, fp_{0}, fn_{0}, docs_{0};
  AnnotationBaseline annotation_;
  saga::serving::EmbeddingKvCache::Stats cache_base_;
  HistSnapshot get_base_;
  KvBase kv_base_;
  uint64_t docs_base_ = 0;
  // Written only by the writer thread; read after it is joined.
  std::unordered_map<kg::EntityId, uint32_t> acked_;
  uint64_t write_attempts_ = 0, write_failures_ = 0, puts_ = 0, put_ns_ = 0,
           user_bytes_ = 0;
  size_t imm_max_ = 0;
  std::vector<double> write_latency_ms_;
  std::atomic<bool> stop_{false};
  std::thread writer_;  // last: joined before the state above goes away
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Stack* stack,
                                       const WorkloadParams& params) {
  if (name == "ask") return std::make_unique<AskWorkload>(stack, params);
  if (name == "related") return std::make_unique<RelatedWorkload>(stack, params);
  if (name == "link") return std::make_unique<LinkWorkload>(stack, params);
  return nullptr;
}

}  // namespace perfbench
