// Closed- and open-loop load generation over a Workload, and the exact
// percentile helper the report uses.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Tallies of one phase. Latencies are in milliseconds; a failed
/// request is charged max(its latency, the deadline), since it missed
/// the limit the deadline sets.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      // shed, deadline exceeded or errored
  uint64_t mismatches = 0;  // failed an output check
  double seconds = 0;       // wall time of the phase(s)
  std::vector<double> latency_ms;
  // Closed loop: successful completions per second in each 0.2 s
  // window.
  std::vector<double> window_rates;
  // Open loop: how late a worker woke for a request it slept until;
  // and per request how long it waited for a free worker (0 when one
  // was already waiting).
  std::vector<double> late_ms;
  std::vector<double> queue_wait_ms;
};

/// `clients` callers (the calling thread is one of them) each send the
/// next request as soon as the previous one completes, for `seconds`
/// or until `max_requests` were sent. Stream positions come from
/// `next`, so successive phases continue the stream. Latency is timed
/// from send to response.
PhaseResult ClosedLoop(Workload* w, int clients, double seconds,
                       size_t max_requests, double deadline_ms,
                       std::atomic<size_t>* next);

/// Sends request k at `schedule[k]` seconds after the start, served by
/// `workers` threads (the calling thread is one of them). Latency is
/// timed from each request's due time, so a stall is charged to every
/// request it delays.
PhaseResult OpenLoop(Workload* w, int workers,
                     const std::vector<double>& schedule, double deadline_ms,
                     size_t first_index);

/// Busy-waits until `t`. The load generator spins instead of sleeping:
/// on a virtual machine a sleeping thread's CPU halts, and waking it
/// costs up to milliseconds that would be charged to the program.
void SpinUntil(Clock::time_point t);

/// CPU time burned in SpinUntil so far, in seconds (all threads), so
/// process CPU figures can leave the waiting out.
double SpinCpuSeconds();

/// Adds the tallies and samples of `part` to `into`.
void Append(PhaseResult* into, PhaseResult&& part);

/// Mean of the middle half of the values: robust to the stalls a
/// shared machine puts into some windows.
double InterquartileMean(std::vector<double> v);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// Runs fn(0..n-1) on up to four threads (the caller's included).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
