#include "graph_engine/ppr.h"

#include <algorithm>

#include "common/fault_injection.h"

namespace saga::graph_engine {

namespace {

constexpr uint8_t kTouched = 1;  // listed in `touched`
constexpr uint8_t kQueued = 2;   // currently in the FIFO
constexpr uint8_t kSettled = 4;  // has an estimate entry

/// Dense forward-push state indexed by local id, one per thread and
/// sized to the largest view that thread has pushed over. Between calls
/// every residual and estimate is 0.0, every flag is 0 and `touched` is
/// empty; a call restores that by clearing only the nodes it touched.
struct PushScratch {
  std::vector<double> residual;
  std::vector<double> estimate;
  std::vector<uint8_t> flags;
  std::vector<uint32_t> ring;  // FIFO; a node is queued at most once
  std::vector<uint32_t> touched;

  void Fit(size_t n) {
    if (flags.size() >= n) return;
    residual.resize(n, 0.0);
    estimate.resize(n, 0.0);
    flags.resize(n, 0);
    ring.resize(n + 1);
  }

  void Touch(uint32_t u) {
    if (flags[u] & kTouched) return;
    flags[u] |= kTouched;
    touched.push_back(u);
  }
};

/// Hands out the calling thread's scratch and resets it on scope exit,
/// whichever path leaves the push.
class ScratchLease {
 public:
  explicit ScratchLease(size_t n) : s_(Local()) { s_.Fit(n); }
  ~ScratchLease() {
    for (uint32_t u : s_.touched) {
      s_.residual[u] = 0.0;
      s_.estimate[u] = 0.0;
      s_.flags[u] = 0;
    }
    s_.touched.clear();
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  PushScratch& operator*() const { return s_; }

 private:
  static PushScratch& Local() {
    thread_local PushScratch scratch;
    return scratch;
  }

  PushScratch& s_;
};

/// Forward push from `source` into `s`, in FIFO order with the same
/// double arithmetic as the textbook hash-map formulation, so scores are
/// reproducible bit for bit. With `ctx` set, checks the deadline every
/// 256 steps and consults the `graph.traverse` fault point every step.
Status ForwardPush(const Csr& adj, const PprEngine::Options& o,
                   uint32_t source, const RequestContext* ctx,
                   PushScratch* scratch) {
  PushScratch& s = *scratch;
  double* r = s.residual.data();
  double* p = s.estimate.data();
  uint8_t* flags = s.flags.data();
  uint32_t* ring = s.ring.data();
  const size_t cap = adj.size() + 1;
  size_t head = 0;
  size_t tail = 0;

  s.Touch(source);
  r[source] = 1.0;
  ring[tail++] = source;
  flags[source] |= kQueued;

  size_t pushes = 0;
  size_t steps = 0;
  while (head != tail && pushes < o.max_pushes) {
    if (ctx != nullptr) {
      // Push-loop boundary: cooperative deadline check (strided — a
      // push touches at most one adjacency list) + fault consultation.
      if ((steps++ & 255) == 0) {
        SAGA_RETURN_IF_ERROR(ctx->Check("graph_engine.ppr"));
      }
      if (Faults().armed()) {
        SAGA_RETURN_IF_ERROR(Faults().InjectOp("graph.traverse"));
      }
    }
    const uint32_t u = ring[head];
    if (++head == cap) head = 0;
    flags[u] &= ~kQueued;
    const double ru = r[u];
    const std::span<const uint32_t> nbrs = adj[u];
    const size_t deg = nbrs.size();
    if (deg == 0) {
      // Dangling node: absorb the residual.
      p[u] += ru;
      flags[u] |= kSettled;
      r[u] = 0.0;
      continue;
    }
    if (ru / static_cast<double>(deg) < o.epsilon) continue;
    ++pushes;
    p[u] += o.alpha * ru;
    flags[u] |= kSettled;
    const double push = (1.0 - o.alpha) * ru / static_cast<double>(deg);
    r[u] = 0.0;
    for (uint32_t v : nbrs) {
      s.Touch(v);
      r[v] += push;
      // v neighbours u, so its degree is at least 1.
      if (!(flags[v] & kQueued) &&
          r[v] / static_cast<double>(adj[v].size()) >= o.epsilon) {
        ring[tail] = v;
        if (++tail == cap) tail = 0;
        flags[v] |= kQueued;
      }
    }
  }
  return Status::OK();
}

}  // namespace

PprEngine::PprEngine(const GraphView* view) : PprEngine(view, Options()) {}

PprEngine::PprEngine(const GraphView* view, Options options)
    : view_(view), options_(options) {}

Status PprEngine::PprImpl(uint32_t source, const RequestContext* ctx,
                          std::unordered_map<uint32_t, double>* out) const {
  const Csr& adj = view_->Adjacency();
  if (source >= adj.size()) return Status::OK();
  ScratchLease lease(adj.size());
  PushScratch& s = *lease;
  SAGA_RETURN_IF_ERROR(ForwardPush(adj, options_, source, ctx, &s));
  out->reserve(s.touched.size());
  for (uint32_t u : s.touched) {
    if (s.flags[u] & kSettled) out->emplace(u, s.estimate[u]);
  }
  return Status::OK();
}

Status PprEngine::TopKImpl(
    uint32_t source, size_t k, const RequestContext* ctx,
    std::vector<std::pair<uint32_t, double>>* out) const {
  const Csr& adj = view_->Adjacency();
  if (source >= adj.size()) return Status::OK();
  ScratchLease lease(adj.size());
  PushScratch& s = *lease;
  SAGA_RETURN_IF_ERROR(ForwardPush(adj, options_, source, ctx, &s));
  for (uint32_t u : s.touched) {
    if ((s.flags[u] & kSettled) && u != source) {
      out->emplace_back(u, s.estimate[u]);
    }
  }
  const size_t keep = std::min(k, out->size());
  std::partial_sort(out->begin(), out->begin() + keep, out->end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  out->resize(keep);
  return Status::OK();
}

std::unordered_map<uint32_t, double> PprEngine::Ppr(uint32_t source) const {
  std::unordered_map<uint32_t, double> p;
  (void)PprImpl(source, nullptr, &p);
  return p;
}

Result<std::unordered_map<uint32_t, double>> PprEngine::Ppr(
    uint32_t source, const RequestContext& ctx) const {
  std::unordered_map<uint32_t, double> p;
  SAGA_RETURN_IF_ERROR(PprImpl(source, &ctx, &p));
  return p;
}

std::vector<std::pair<uint32_t, double>> PprEngine::TopKRelated(
    uint32_t source, size_t k) const {
  std::vector<std::pair<uint32_t, double>> top;
  (void)TopKImpl(source, k, nullptr, &top);
  return top;
}

Result<std::vector<std::pair<uint32_t, double>>> PprEngine::TopKRelated(
    uint32_t source, size_t k, const RequestContext& ctx) const {
  std::vector<std::pair<uint32_t, double>> top;
  SAGA_RETURN_IF_ERROR(TopKImpl(source, k, &ctx, &top));
  return top;
}

}  // namespace saga::graph_engine
