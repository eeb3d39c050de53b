// The three benchmark workloads behind one interface the load
// generator drives. A workload owns its pre-generated request stream,
// serves request i through the stack's public API inside spans (kept
// while tracing is on), validates every response, and on request
// replays the calls that are only reached inside another one.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/request_context.h"
#include "stack.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Outcome of one request.
struct Served {
  /// Completed without error (not shed, not past its deadline).
  bool ok = false;
  /// An output check failed (counts as a failure too).
  bool mismatch = false;
  /// When the response was ready: after the root span closed, before
  /// output checks and replays.
  Clock::time_point done;
};

/// Workload-specific parameters; rates and sizes come from
/// perfbench/workloads.json through the command line.
struct WorkloadParams {
  uint64_t seed = 1;
  double deadline_ms = 100;
  double writer_rate = 0;  // link: refresh Puts per second
  double run_seconds = 10;
};

/// Per-layer values a workload measures itself (counts and replays);
/// merged into the table of every per-layer metric.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual uint64_t stream_hash() const = 0;

  /// Serves request `i` (modulo the stream length) under `deadline`.
  /// Thread-safe. After the response, repeats the calls reached only
  /// inside another call when replays are on (see SetReplays).
  virtual Served Serve(size_t i, saga::Deadline deadline) = 0;

  /// Turns the replays on or off. The traced run keeps them on in its
  /// untraced comparison phase too, so the two phases put the same load
  /// on the machine and differ only in tracing.
  void SetReplays(bool on) { replays_.store(on, std::memory_order_relaxed); }

  /// Starts / stops background traffic beside the requests (link's
  /// profile writer). The writer runs between the two calls.
  virtual void StartBackground() {}
  virtual void StopBackground() {}

  /// Operations of the background traffic so far, counted with the
  /// requests in `attempted` and `failed`.
  struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  virtual Tally BackgroundTally() const { return {}; }

  /// Checks run once after the measured phases (link's read-back).
  /// Returns the number of mismatches found.
  virtual uint64_t FinalChecks() { return 0; }

  /// Output quality in [0, 1] over the requests served so far; may
  /// compute references, so call it after the clock stops.
  virtual double Quality() = 0;

  /// Snapshots counters at the start of the measured interval; Layer
  /// reports deltas from here.
  virtual void MarkLayerBaseline() {}

  /// Adds this workload's per-layer values (call after Quality).
  virtual void Layers(LayerValues* out) = 0;

 protected:
  bool replays() const { return replays_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> replays_{false};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Stack* stack,
                                       const WorkloadParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
