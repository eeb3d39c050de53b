// Serving benchmark: builds the serving stack from the library's public
// constructors and drives one workload (`ask`, `related` or `link`)
// through a closed loop (throughput) and an open loop on a Poisson
// schedule (latency). With --trace 1 the same workload runs once more
// with tracing on and reports per-layer metrics instead. The last line
// of stdout is one JSON object; see perfbench/README.md.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/trace.h"
#include "loadgen.h"
#include "streams.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int clients = 3;
  int workers = 3;
  double rate = 1000;
  double deadline_ms = 100;
  double writer_rate = 0;
  size_t cache_bytes = 2 << 20;
  std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void UsageError(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload ask|related|link --seed N "
               "--seconds S --trace 0|1 [--clients C] [--workers W] "
               "[--rate R] [--deadline-ms D] [--writer-rate R] "
               "[--cache-bytes B] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) UsageError(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v);
    else if (flag == "--trace") o.trace = std::atoi(v) != 0;
    else if (flag == "--clients") o.clients = std::atoi(v);
    else if (flag == "--workers") o.workers = std::atoi(v);
    else if (flag == "--rate") o.rate = std::atof(v);
    else if (flag == "--deadline-ms") o.deadline_ms = std::atof(v);
    else if (flag == "--writer-rate") o.writer_rate = std::atof(v);
    else if (flag == "--cache-bytes") o.cache_bytes = std::strtoull(v, nullptr, 10);
    else if (flag == "--work-dir") o.work_dir = v;
    else UsageError(("unknown flag " + flag).c_str());
  }
  if (o.workload != "ask" && o.workload != "related" && o.workload != "link") {
    UsageError("--workload must be ask, related or link");
  }
  if (o.seconds <= 0 || o.clients < 1 || o.workers < 1 || o.rate <= 0 ||
      o.deadline_ms <= 0) {
    UsageError("flag value out of range");
  }
  return o;
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Must match BENCHMARK.json; run.py checks the printed keys against it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"throughput_rps", "req/s", "higher"},
    {"p50_ms", "ms", "lower"},
    {"p95_ms", "ms", "lower"},
    {"success_rate", "fraction", "higher"},
    {"quality", "fraction", "higher"},
    {"peak_rss_mb", "MiB", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"loadgen.late_p99_ms", "ms", "lower"},
    {"loadgen.queue_wait_p99_ms", "ms", "lower"},
    {"proc.cpu_ms_per_req", "ms", "lower"},
    {"proc.invol_ctx_switches_per_s", "1/s", "lower"},
    {"serving.admission.admit_us", "us", "lower"},
    {"serving.admission.shed_ratio", "fraction", "lower"},
    {"annotation.annotate_us", "us", "lower"},
    {"annotation.mentions_per_call", "count", "lower"},
    {"annotation.annotations_per_call", "count", "higher"},
    {"serving.qa.ask_us", "us", "lower"},
    {"serving.qa.ask_self_us", "us", "lower"},
    {"serving.ranker.rank_us", "us", "lower"},
    {"serving.ranker.facts_per_call", "count", "lower"},
    {"serving.embedding.topk_us", "us", "lower"},
    {"serving.embedding.topk_self_us", "us", "lower"},
    {"ann.search_us", "us", "lower"},
    {"ann.vectors_scanned_per_query", "count", "lower"},
    {"ann.bytes_per_query", "bytes", "lower"},
    {"ann.recall_at_10", "fraction", "higher"},
    {"graph_engine.related_us", "us", "lower"},
    {"graph_engine.ppr_us", "us", "lower"},
    {"graph_engine.ppr_nodes_touched", "count", "lower"},
    {"serving.kv_cache.get_us", "us", "lower"},
    {"serving.kv_cache.gets_per_doc", "count", "lower"},
    {"serving.kv_cache.memory_hit_ratio", "fraction", "higher"},
    {"serving.kv_cache.disk_hit_ratio", "fraction", "lower"},
    {"serving.kv_cache.put_us", "us", "lower"},
    {"write_p99_ms", "ms", "lower"},
    {"storage.kv.sstables", "count", "lower"},
    {"storage.kv.probes_per_get", "count", "lower"},
    {"storage.kv.bloom_skip_ratio", "fraction", "higher"},
    {"storage.kv.flushes", "count", "lower"},
    {"storage.kv.flush_bytes_per_user_byte", "ratio", "lower"},
    {"storage.kv.imm_memtables_max", "count", "lower"},
    {"storage.kv.stall_rejects", "count", "lower"},
    {"setup.kg_s", "s", "lower"},
    {"setup.train_s", "s", "lower"},
    {"setup.serving_s", "s", "lower"},
    {"setup.profiles_s", "s", "lower"},
    {"setup.corpus_s", "s", "lower"},
    {"trace.coverage", "fraction", "higher"},
    {"trace.overhead", "ratio", "lower"},
};

constexpr int kSetupRepeats = 3;
// The measured phases alternate in rounds of about this many seconds
// (closed, open, closed, open, ...), so each metric samples the whole
// run and slow drifts of a shared machine's speed average out.
constexpr double kRoundSeconds = 2.5;
// Spans of the traced phase stay in memory until exit.
constexpr size_t kMaxTracedRequests = 4000;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Process CPU time (less the load generator's spinning) and
/// involuntary context switches so far.
struct Usage {
  double cpu_s = 0;
  double invol_switches = 0;
  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return {sec(ru.ru_utime) + sec(ru.ru_stime) - SpinCpuSeconds(),
            static_cast<double>(ru.ru_nivcsw)};
  }
};

/// Totals of the benchmark's own spans: the direct children of every
/// request root (one per public call, plus admission) and the replay
/// roots recorded outside the requests.
struct SpanTotals {
  struct Sum {
    uint64_t count = 0;
    uint64_t ns = 0;
    double mean_us() const {
      return count ? static_cast<double>(ns) / 1e3 / static_cast<double>(count)
                   : 0.0;
    }
    double total_us() const { return static_cast<double>(ns) / 1e3; }
  };
  Sum roots;
  uint64_t covered_ns = 0;
  std::map<std::string, Sum> spans;  // children of roots, and replays

  static SpanTotals Collect() {
    SpanTotals t;
    saga::obs::VisitCollectedTraces([&](const saga::obs::SpanNode& root) {
      if (root.name == "bench.request") {
        ++t.roots.count;
        t.roots.ns += root.duration_ns;
        for (const auto& child : root.children) {
          Sum& s = t.spans[child->name];
          ++s.count;
          s.ns += child->duration_ns;
          t.covered_ns += child->duration_ns;
        }
      } else if (root.name.rfind("bench.replay.", 0) == 0) {
        Sum& s = t.spans[root.name];
        ++s.count;
        s.ns += root.duration_ns;
      }
    });
    return t;
  }
  const Sum& at(const std::string& name) const {
    static const Sum kEmpty;
    auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
  }
};

void SpanLayers(const std::string& workload, const SpanTotals& t,
                LayerValues* out) {
  auto mean = [&](const char* n) { return t.at(n).mean_us(); };
  // Self time of a call = its mean minus the replayed inner calls,
  // charged per outer call.
  auto self = [&](const char* outer, std::initializer_list<const char*> inner) {
    const SpanTotals::Sum& o = t.at(outer);
    if (o.count == 0) return 0.0;
    double sub = 0;
    for (const char* n : inner) sub += t.at(n).total_us();
    return (o.total_us() - sub) / static_cast<double>(o.count);
  };
  (*out)["serving.admission.admit_us"] = mean("bench.admit");
  (*out)["serving.qa.ask_us"] = mean("bench.ask");
  (*out)["serving.qa.ask_self_us"] =
      self("bench.ask", {"bench.replay.annotate", "bench.replay.rank"});
  (*out)["annotation.annotate_us"] =
      workload == "link" ? mean("bench.annotate") : mean("bench.replay.annotate");
  (*out)["serving.ranker.rank_us"] = mean("bench.replay.rank");
  (*out)["serving.embedding.topk_us"] = mean("bench.topk");
  (*out)["serving.embedding.topk_self_us"] =
      self("bench.topk", {"bench.replay.ann_search"});
  (*out)["ann.search_us"] = mean("bench.replay.ann_search");
  (*out)["graph_engine.related_us"] = mean("bench.related");
  (*out)["graph_engine.ppr_us"] = mean("bench.replay.ppr");
  (*out)["trace.coverage"] =
      t.roots.ns ? static_cast<double>(t.covered_ns) / static_cast<double>(t.roots.ns)
                 : 0.0;
}

/// Per-layer self-time table of the traced run, written beside the
/// Chrome trace.
std::string LayerTable(const SpanTotals& t, const LayerValues& layers) {
  std::string out = "benchmark spans (children of bench.request, and replays)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s\n", "span", "calls",
                "mean_us");
  out += line;
  std::snprintf(line, sizeof(line), "%-28s %10llu %12.3f\n", "bench.request",
                static_cast<unsigned long long>(t.roots.count), t.roots.mean_us());
  out += line;
  for (const auto& [name, s] : t.spans) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.mean_us());
    out += line;
  }
  out += "\nper-layer metrics\n";
  for (const auto& [name, v] : layers) {
    std::snprintf(line, sizeof(line), "%-40s %.6g\n", name.c_str(), v);
    out += line;
  }
  out += "\nall spans, inclusive and exclusive (self) time\n";
  out += saga::obs::SpanReport();
  return out;
}

/// Builds the stack kSetupRepeats times at once: this process builds
/// the one it serves from while child processes build and time the
/// others. A run so spends one set-up's wall time on them, not three,
/// and its peak RSS stays that of one stack. Each set-up's times go to
/// `times`; returns null if a child failed.
std::unique_ptr<Stack> BuildStacks(const StackConfig& sc,
                                   std::vector<SetupTimes>* times) {
  struct Child {
    pid_t pid;
    int fd;
  };
  std::vector<Child> children;
  std::fflush(stdout);  // the children must not repeat buffered output
  std::fflush(stderr);
  for (int r = 1; r < kSetupRepeats; ++r) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("perfbench: pipe");
      break;
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid == 0) {
      // Die with the benchmark rather than outlive it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      close(fds[0]);
      StackConfig c = sc;
      c.cache_dir += "-" + std::to_string(r);
      SetupTimes t;
      BuildStack(c, &t).reset();
      (void)saga::RemoveDirRecursively(c.cache_dir);
      const bool sent = write(fds[1], &t, sizeof(t)) == sizeof(t);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    if (pid < 0) {
      std::perror("perfbench: fork");
      close(fds[0]);
      break;
    }
    children.push_back({pid, fds[0]});
  }
  SetupTimes mine;
  std::unique_ptr<Stack> stack = BuildStack(sc, &mine);
  times->push_back(mine);
  bool ok = static_cast<int>(children.size()) + 1 == kSetupRepeats;
  for (const Child& c : children) {
    SetupTimes t;
    const bool got = read(c.fd, &t, sizeof(t)) == sizeof(t);
    close(c.fd);
    int status = 0;
    while (waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      times->push_back(t);
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: a set-up process failed\n");
    return nullptr;
  }
  return stack;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << data;
  return static_cast<bool>(f);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Options& o) {
  const std::string run_dir =
      o.work_dir + "/" + o.workload + "-" + std::to_string(getpid());
  const std::string out_dir = o.work_dir + "/out";
  if (!saga::CreateDirIfMissing(o.work_dir).ok() ||
      !saga::CreateDirIfMissing(run_dir).ok() ||
      !saga::CreateDirIfMissing(out_dir).ok()) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run_dir.c_str());
    return 2;
  }

  // Set-up, several times: setup_s is the median total.
  StackConfig sc;
  sc.with_link = o.workload == "link";
  sc.cache_dir = run_dir + "/profile-cache";
  sc.cache_bytes = o.cache_bytes;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack = BuildStacks(sc, &setups);
  if (!stack) {
    (void)saga::RemoveDirRecursively(run_dir);
    return 2;
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total());
  std::printf("stack: %zu entities, %zu triples, %zu view edges, %zu "
              "embeddings (dim %d)%s\n",
              stack->gen.kg.catalog().size(), stack->gen.kg.num_triples(),
              stack->view.edges().size(), stack->embeddings->store().size(),
              stack->embeddings->dim(),
              sc.with_link ? (", " + std::to_string(stack->corpus.size()) +
                              " web documents").c_str()
                           : "");

  // Inputs, generated before any clock starts.
  WorkloadParams wp;
  wp.seed = o.seed;
  wp.deadline_ms = o.deadline_ms;
  wp.writer_rate = sc.with_link ? o.writer_rate : 0.0;
  wp.run_seconds = o.seconds;
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, stack.get(), wp);
  // 30% of the measured time in the closed loop, 70% in the open loop
  // (more samples for its tail percentile).
  const double closed_s = o.seconds * 0.3;
  const double open_s = o.seconds * 0.7;
  const std::vector<double> schedule = PoissonSchedule(o.rate, open_s, o.seed);
  std::printf("stream_hash=%016llx schedule_hash=%016llx seed=%llu\n",
              static_cast<unsigned long long>(w->stream_hash()),
              static_cast<unsigned long long>(StreamHash(schedule)),
              static_cast<unsigned long long>(o.seed));

  // Warm-up: fills caches and finishes lazy set-up; not measured.
  std::atomic<size_t> next{0};
  const double deadline = o.deadline_ms;
  PhaseResult warm = ClosedLoop(w.get(), o.clients, std::min(1.0, o.seconds / 10),
                                SIZE_MAX, deadline, &next);
  uint64_t mismatches = warm.mismatches;

  w->MarkLayerBaseline();
  const auto admission0 = stack->admission->stats();
  w->StartBackground();
  PhaseResult closed, traced, open;
  Usage open_start, open_end;  // traced run: around its open loop
  size_t open_next = size_t{1} << 30;  // far from the closed loop's positions
  if (!o.trace) {
    // Round r serves the schedule's arrivals in [r, r+1) x open_s/rounds.
    const int rounds = std::max(1, static_cast<int>(o.seconds / kRoundSeconds));
    const double slice = open_s / rounds;
    size_t k = 0;
    for (int r = 0; r < rounds; ++r) {
      PhaseResult c = ClosedLoop(w.get(), o.clients, closed_s / rounds,
                                 SIZE_MAX, deadline, &next);
      std::vector<double> part;
      for (; k < schedule.size() && schedule[k] < slice * (r + 1); ++k) {
        part.push_back(schedule[k] - slice * r);
      }
      PhaseResult op = OpenLoop(w.get(), o.workers, part, deadline, open_next);
      // Per-round figures show drift of the machine within a run.
      std::fprintf(stderr,
                   "round %d: closed %.1f req/s, open p50 %.4f ms p95 %.4f ms "
                   "p99 %.4f ms\n",
                   r, InterquartileMean(c.window_rates),
                   Percentile(op.latency_ms, 0.5), Percentile(op.latency_ms, 0.95),
                   Percentile(op.latency_ms, 0.99));
      Append(&closed, std::move(c));
      Append(&open, std::move(op));
      open_next += part.size();
    }
  } else {
    // Both halves replay; only the second records spans, so their mean
    // latencies differ by the cost of tracing alone.
    w->SetReplays(true);
    closed = ClosedLoop(w.get(), o.clients, closed_s / 2, SIZE_MAX, deadline, &next);
    saga::obs::SetTracingEnabled(true);
    traced = ClosedLoop(w.get(), o.clients, closed_s / 2, kMaxTracedRequests,
                        deadline, &next);
    saga::obs::SetTracingEnabled(false);
    w->SetReplays(false);
    open_start = Usage::Now();
    open = OpenLoop(w.get(), o.workers, schedule, deadline, open_next);
    open_end = Usage::Now();
  }
  w->StopBackground();
  const auto admission1 = stack->admission->stats();

  LayerValues layers;
  if (o.trace) w->Layers(&layers);  // before FinalChecks reads the cache
  mismatches += closed.mismatches + traced.mismatches + open.mismatches;
  mismatches += w->FinalChecks();
  const double quality = w->Quality();
  const Workload::Tally bg = w->BackgroundTally();
  const uint64_t attempted =
      closed.attempted + traced.attempted + open.attempted + bg.attempted;
  const uint64_t failed = closed.failed + traced.failed + open.failed + bg.failed;
  const bool correct = mismatches == 0;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("closed loop: %d clients, %.2f s, %llu requests; open loop: %d "
              "workers, %.0f req/s, %.2f s, %llu requests (%zu latency "
              "samples, p99 %.4g ms); deadline %.0f ms\n",
              o.clients, closed.seconds,
              static_cast<unsigned long long>(closed.attempted), o.workers,
              o.rate, open.seconds,
              static_cast<unsigned long long>(open.attempted),
              open.latency_ms.size(), Percentile(open.latency_ms, 0.99),
              deadline);
  std::printf("attempted=%llu failed=%llu mismatches=%llu error_rate=%.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches),
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                        : 0.0);

  LayerValues values;
  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (!o.trace) {
    values["setup_s"] = Median(totals);
    values["throughput_rps"] = InterquartileMean(closed.window_rates);
    values["p50_ms"] = Percentile(open.latency_ms, 0.50);
    // The tail is reported at p95, not p99: on a shared virtual machine
    // the host stalls a CPU for milliseconds often enough (about 1-2%
    // of the time) that p99 follows the host's stalls more than the
    // program. p99 is printed above, unbounded.
    values["p95_ms"] = Percentile(open.latency_ms, 0.95);
    values["success_rate"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1));
    values["quality"] = quality;
    values["peak_rss_mb"] = peak_rss_mb;
  } else {
    for (const MetricDef& d : kPerLayer) values[d.name] = 0.0;
    for (const auto& [k, v] : layers) values[k] = v;
    const SpanTotals spans = SpanTotals::Collect();
    SpanLayers(o.workload, spans, &values);
    values["loadgen.late_p99_ms"] = Percentile(open.late_ms, 0.99);
    values["loadgen.queue_wait_p99_ms"] = Percentile(open.queue_wait_ms, 0.99);
    // Process figures over the open loop, the phase without replays.
    values["proc.cpu_ms_per_req"] =
        1e3 * (open_end.cpu_s - open_start.cpu_s) /
        std::max(static_cast<double>(open.attempted), 1.0);
    values["proc.invol_ctx_switches_per_s"] =
        (open_end.invol_switches - open_start.invol_switches) / open.seconds;
    const double admitted = static_cast<double>(admission1.admitted - admission0.admitted);
    const double shed = static_cast<double>(
        (admission1.shed_low - admission0.shed_low) +
        (admission1.shed_high - admission0.shed_high) +
        (admission1.rejected_expired - admission0.rejected_expired));
    values["serving.admission.shed_ratio"] = admitted + shed > 0 ? shed / (admitted + shed) : 0.0;
    values["setup.kg_s"] = median_of(&SetupTimes::kg_s);
    values["setup.train_s"] = median_of(&SetupTimes::train_s);
    values["setup.serving_s"] = median_of(&SetupTimes::serving_s);
    values["setup.profiles_s"] = median_of(&SetupTimes::profiles_s);
    values["setup.corpus_s"] = median_of(&SetupTimes::corpus_s);
    const double untraced_mean = Mean(closed.latency_ms);
    values["trace.overhead"] =
        untraced_mean > 0 ? Mean(traced.latency_ms) / untraced_mean - 1.0 : 0.0;

    const std::string stem =
        out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    if (!WriteFile(stem + ".trace.json", saga::obs::ChromeTraceJson()) ||
        !WriteFile(stem + ".layers.txt", LayerTable(spans, values))) {
      std::fprintf(stderr, "perfbench: cannot write %s.*\n", stem.c_str());
    }
    std::printf("traced run: %llu requests traced; span dump %s.trace.json, "
                "layer table %s.layers.txt\n",
                static_cast<unsigned long long>(traced.attempted), stem.c_str(),
                stem.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < ndefs; ++i) {
    const MetricDef& d = defs[i];
    std::printf("%-40s %14.6g %-9s (%s is better)\n", d.name, values[d.name],
                d.unit, d.better);
    if (i) json += ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " +
            JsonNumber(values[d.name]) + ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);

  w.reset();
  stack.reset();
  (void)saga::RemoveDirRecursively(run_dir);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu output check(s) failed\n",
                 static_cast<unsigned long long>(mismatches));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
