#ifndef SAGA_BENCH_BENCH_UTIL_H_
#define SAGA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace saga::bench {

/// Minimal fixed-width table printer for paper-style result tables.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("| ");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf("%-*s | ", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Every sample of one bench measurement, for exact percentiles in
/// result tables and `--gate` ratios. obs::LatencyHistogram's log
/// buckets (up to 25% quantile error) would blur what the gates
/// compare. Single writer: each worker fills its own and the owner
/// merges them.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  /// Appends `other`'s samples.
  void Merge(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }

  size_t count() const { return v_.size(); }
  double Mean() const {
    double sum = 0.0;
    for (double v : v_) sum += v;
    return v_.empty() ? 0.0 : sum / static_cast<double>(v_.size());
  }
  /// p in [0, 100], linear interpolation between closest ranks; 0 when
  /// empty.
  double Percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> sorted = v_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

 private:
  std::vector<double> v_;
};

inline std::string Fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline void Section(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

/// Prints the observability surface accumulated so far: the per-stage
/// span latency breakdown (inclusive/exclusive time) plus the full
/// Prometheus-style metric dump (counters, gauges, latency quantiles).
inline void PrintObsBreakdown() {
  Section("per-stage latency breakdown (tracing spans)");
  std::printf("%s", obs::SpanReport().c_str());
  Section("metrics (obs::DumpAll)");
  std::printf("%s", obs::DumpAll(obs::DumpFormat::kPrometheus).c_str());
}

/// RAII per-bench observability session: enables tracing and zeroes
/// global metrics on entry; prints the per-stage breakdown on exit.
/// Drop one at the top of main() in every bench binary.
class ObsSession {
 public:
  ObsSession() {
    obs::SetEnabled(true);
    obs::Registry::Global().ResetAll();
    obs::ClearTraces();
    obs::SetTracingEnabled(true);
  }
  ~ObsSession() { PrintObsBreakdown(); }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
};

}  // namespace saga::bench

#endif  // SAGA_BENCH_BENCH_UTIL_H_
