#include "loadgen.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

// Closed-loop completions are counted in windows of this length.
constexpr double kRateWindowS = 0.2;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

void Record(PhaseResult* r, const Served& s, double latency_ms,
            double deadline_ms) {
  ++r->attempted;
  if (s.ok) ++r->ok;
  if (s.mismatch) ++r->mismatches;
  if (!s.ok || s.mismatch) ++r->failed;
  r->latency_ms.push_back(s.ok ? latency_ms : std::max(latency_ms, deadline_ms));
}

/// Runs `body(t)` on threads 1..n-1 and on the calling thread as 0.
void RunThreads(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int t = 1; t < n; ++t) threads.emplace_back(body, t);
  body(0);
  for (std::thread& t : threads) t.join();
}

std::atomic<uint64_t> g_spin_cpu_ns{0};

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

void SpinUntil(Clock::time_point t) {
  if (Clock::now() >= t) return;
  const uint64_t cpu0 = ThreadCpuNs();
  while (Clock::now() < t) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
  g_spin_cpu_ns.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
}

double SpinCpuSeconds() {
  return static_cast<double>(g_spin_cpu_ns.load(std::memory_order_relaxed)) /
         1e9;
}

void Append(PhaseResult* into, PhaseResult&& part) {
  into->attempted += part.attempted;
  into->ok += part.ok;
  into->failed += part.failed;
  into->mismatches += part.mismatches;
  into->seconds += part.seconds;
  auto append = [](auto* a, const auto& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->latency_ms, part.latency_ms);
  append(&into->window_rates, part.window_rates);
  append(&into->late_ms, part.late_ms);
  append(&into->queue_wait_ms, part.queue_wait_ms);
}

PhaseResult ClosedLoop(Workload* w, int clients, double seconds,
                       size_t max_requests, double deadline_ms,
                       std::atomic<size_t>* next) {
  std::vector<PhaseResult> per(static_cast<size_t>(clients));
  std::vector<std::vector<double>> done_s(static_cast<size_t>(clients));
  std::atomic<size_t> sent{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  RunThreads(clients, [&](int c) {
    PhaseResult& r = per[static_cast<size_t>(c)];
    while (Clock::now() < end && sent.fetch_add(1) < max_requests) {
      const size_t i = next->fetch_add(1);
      const auto t0 = Clock::now();
      const Served s = w->Serve(i, saga::Deadline(t0 + FromMs(deadline_ms)));
      Record(&r, s, Ms(s.done - t0), deadline_ms);
      if (s.ok && !s.mismatch) {
        done_s[static_cast<size_t>(c)].push_back(
            std::chrono::duration<double>(s.done - start).count());
      }
    }
  });
  PhaseResult out;
  for (PhaseResult& p : per) Append(&out, std::move(p));
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  // Completion rate per whole window of the phase.
  const size_t windows = static_cast<size_t>(seconds / kRateWindowS);
  out.window_rates.assign(windows, 0.0);
  for (const auto& times : done_s) {
    for (double t : times) {
      const size_t w = static_cast<size_t>(t / kRateWindowS);
      if (w < windows) out.window_rates[w] += 1.0 / kRateWindowS;
    }
  }
  return out;
}

PhaseResult OpenLoop(Workload* w, int workers,
                     const std::vector<double>& schedule, double deadline_ms,
                     size_t first_index) {
  // Workers pull the schedule in due order: an idle worker claims the
  // next request and waits until it is due; a request that falls due
  // while every worker is busy waits in line until one frees. No
  // dispatcher thread hands requests over, so no wake-up of a second
  // thread sits in every request's path.
  std::atomic<size_t> next{0};
  std::vector<PhaseResult> per(static_cast<size_t>(workers));
  const auto start = Clock::now();
  RunThreads(workers, [&](int t) {
    PhaseResult& r = per[static_cast<size_t>(t)];
    for (size_t k = next.fetch_add(1); k < schedule.size();
         k = next.fetch_add(1)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(schedule[k]));
      const auto claimed = Clock::now();
      if (claimed < due) {
        SpinUntil(due);
        r.late_ms.push_back(Ms(Clock::now() - due));
        r.queue_wait_ms.push_back(0.0);
      } else {
        r.queue_wait_ms.push_back(Ms(claimed - due));
      }
      const Served s = w->Serve(first_index + k,
                                saga::Deadline(due + FromMs(deadline_ms)));
      Record(&r, s, Ms(s.done - due), deadline_ms);
    }
  });
  PhaseResult out;
  for (PhaseResult& p : per) Append(&out, std::move(p));
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank > 0 ? rank - 1 : 0);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  const size_t threads = std::min<size_t>(
      n, std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  RunThreads(static_cast<int>(std::max<size_t>(threads, 1)), [&](int) {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  });
}

}  // namespace perfbench
