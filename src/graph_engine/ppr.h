#ifndef SAGA_GRAPH_ENGINE_PPR_H_
#define SAGA_GRAPH_ENGINE_PPR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/request_context.h"
#include "common/result.h"
#include "graph_engine/view.h"

namespace saga::graph_engine {

/// Personalized PageRank over a graph view, via the Andersen-Chung-Lang
/// forward-push approximation. Serves as the classical (non-embedding)
/// related-entities baseline and as a graph-signal feature.
///
/// The push runs over the view's CSR adjacency on dense per-thread
/// scratch (see DESIGN.md §5.2), so concurrent calls on one engine are
/// safe and need no lock.
class PprEngine {
 public:
  struct Options {
    double alpha = 0.15;    // teleport probability
    double epsilon = 1e-4;  // push threshold (residual/degree)
    size_t max_pushes = 1000000;
  };

  explicit PprEngine(const GraphView* view);
  PprEngine(const GraphView* view, Options options);

  /// Approximate PPR vector from `source` (local id): one entry per
  /// node the push settled mass on.
  std::unordered_map<uint32_t, double> Ppr(uint32_t source) const;

  /// Deadline-aware serving variant: checks `ctx` at push-loop
  /// boundaries (forward-push is the PPR hot loop) and returns
  /// DeadlineExceeded once the budget is spent. Consults the
  /// `graph.traverse` fault point for latency/failure injection.
  Result<std::unordered_map<uint32_t, double>> Ppr(
      uint32_t source, const RequestContext& ctx) const;

  /// Top-k highest-PPR entities excluding the source itself.
  std::vector<std::pair<uint32_t, double>> TopKRelated(uint32_t source,
                                                       size_t k) const;
  Result<std::vector<std::pair<uint32_t, double>>> TopKRelated(
      uint32_t source, size_t k, const RequestContext& ctx) const;

 private:
  Status PprImpl(uint32_t source, const RequestContext* ctx,
                 std::unordered_map<uint32_t, double>* out) const;
  Status TopKImpl(uint32_t source, size_t k, const RequestContext* ctx,
                  std::vector<std::pair<uint32_t, double>>* out) const;

  const GraphView* view_;
  Options options_;
};

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_PPR_H_
