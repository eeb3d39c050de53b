// Resource-exhaustion bench (DESIGN.md "Resource exhaustion & degraded
// modes"). Drives one KvStore through the full disk-budget lifecycle:
//
//   1. preload       — fixed read working set under a governed budget.
//   2. fill          — write until the governor trips read-only
//                      degraded mode; report how much the budget
//                      absorbed and the denial that tripped it.
//   3. degraded      — reads keep serving from the degraded store
//                      (measured p50/p99); writes fail fast with
//                      storage-origin kResourceExhausted (measured
//                      rejection latency — failing fast is the point).
//   4. recover       — RunReclaim frees what it can (obsolete tables),
//                      then the operator lever (budget raise) reopens
//                      the write path; reads are re-measured on the
//                      identical layout as the healthy baseline.
//
// The paper's platform serves reads continuously while growth fills
// disks, so the number that matters is the degraded-read penalty:
// `--gate` fails the run when degraded p99 exceeds 1.5x the healthy
// baseline p99 on the same data layout (or when any lifecycle step
// misbehaves: writes accepted while degraded, store not writable after
// recovery).

#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "resource/disk_space_governor.h"
#include "storage/kv_store.h"

namespace saga::bench {
namespace {

constexpr int kPreloadKeys = 2000;
constexpr size_t kPreloadValueBytes = 256;
constexpr size_t kFillValueBytes = 1024;
constexpr int kReadOps = 20000;
constexpr int kWriteProbes = 2000;
constexpr double kDegradedP99Budget = 1.5;  // x healthy baseline p99

std::string PreloadKey(int i) { return "k" + std::to_string(i); }

Samples MeasureReads(storage::KvStore* store, uint64_t seed, int ops) {
  Rng rng(seed);
  Samples ms;
  for (int i = 0; i < ops; ++i) {
    const std::string key = PreloadKey(rng.Uniform(kPreloadKeys));
    Stopwatch sw;
    auto got = store->Get(key);
    if (got.ok()) ms.Add(sw.ElapsedMillis());
  }
  return ms;
}

std::string MiB(uint64_t bytes) {
  return Fmt(static_cast<double>(bytes) / (1 << 20), 2) + " MiB";
}

}  // namespace
}  // namespace saga::bench

int main(int argc, char** argv) {
  using namespace saga;
  using namespace saga::bench;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }
  SetMinLogLevel(LogLevel::kError);
  ObsSession obs_session;
  int gate_status = 0;
  auto check = [&](const char* what, bool ok) {
    if (!ok) {
      std::printf("GATE FAIL: %s\n", what);
      gate_status = 1;
    }
  };

  auto dir = MakeTempDir("saga_bench_resource");
  if (!dir.ok()) {
    std::fprintf(stderr, "%s\n", dir.status().ToString().c_str());
    return 1;
  }

  resource::DiskSpaceGovernor::Options gopts;
  gopts.budget_bytes = 8 << 20;
  gopts.emergency_floor_bytes = 512 << 10;
  resource::DiskSpaceGovernor governor(*dir, gopts);

  storage::KvStore::Options opts;
  opts.memtable_max_bytes = 64 << 10;
  opts.auto_compact_trigger = 4;
  opts.governor = &governor;
  auto store = storage::KvStore::Open(*dir, opts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  governor.RegisterReclaimTask(
      "kv.drop_obsolete", [&] { return (*store)->DropObsoleteFiles(); });

  // ---- Phase 1: preload the read working set -----------------------
  Section("phase 1: preload (governed budget, writes reserved)");
  const std::string preload_value(kPreloadValueBytes, 'p');
  for (int i = 0; i < kPreloadKeys; ++i) {
    if (!(*store)->Put(PreloadKey(i), preload_value).ok()) {
      std::fprintf(stderr, "preload write failed\n");
      return 1;
    }
  }
  Table t1({"budget", "floor", "used", "free"});
  t1.AddRow({MiB(governor.budget_bytes()),
             MiB(gopts.emergency_floor_bytes), MiB(governor.used_bytes()),
             MiB(governor.FreeBytes())});
  t1.Print();

  // ---- Phase 2: fill until the governor trips ----------------------
  Section("phase 2: fill to exhaustion");
  const std::string fill_value(kFillValueBytes, 'f');
  Stopwatch fill_sw;
  int fill_acked = 0;
  while (!governor.degraded() && fill_acked < 1'000'000) {
    if ((*store)->Put("fill/" + std::to_string(fill_acked), fill_value).ok()) {
      ++fill_acked;
    }
  }
  check("fill trips degraded mode", governor.degraded());
  Table t2({"fill writes acked", "fill seconds", "used at trip", "denials",
            "degraded"});
  t2.AddRow({std::to_string(fill_acked), Fmt(fill_sw.ElapsedSeconds(), 2),
             MiB(governor.used_bytes()), std::to_string(governor.denials()),
             governor.degraded() ? "yes" : "no"});
  t2.Print();

  // ---- Phase 3: degraded serving -----------------------------------
  Section("phase 3: read-only degraded serving");
  (void)MeasureReads(store->get(), 5, kReadOps);  // warm
  Samples degraded_reads = MeasureReads(store->get(), 11, kReadOps);
  Samples reject_ms;
  int rejected = 0;
  for (int i = 0; i < kWriteProbes; ++i) {
    Stopwatch sw;
    const Status s = (*store)->Put("rejected/" + std::to_string(i), "x");
    if (s.IsStorageExhausted()) {
      reject_ms.Add(sw.ElapsedMillis());
      ++rejected;
    }
  }
  check("every degraded write is rejected", rejected == kWriteProbes);
  Table t3({"reads", "read p50 ms", "read p99 ms", "writes rejected",
            "reject p99 ms"});
  t3.AddRow({std::to_string(degraded_reads.count()),
             Fmt(degraded_reads.Percentile(50)),
             Fmt(degraded_reads.Percentile(99)), std::to_string(rejected),
             Fmt(reject_ms.Percentile(99))});
  t3.Print();

  // ---- Phase 4: reclaim, recover, re-measure -----------------------
  Section("phase 4: reclaim + budget override -> writable again");
  const uint64_t freed = governor.RunReclaim();
  const bool reclaim_recovered = !governor.degraded();
  if (!reclaim_recovered) {
    // All data is live (nothing obsolete to drop): the operator lever.
    governor.SetBudgetBytes(gopts.budget_bytes * 2);
  }
  check("store exits degraded mode", !governor.degraded());
  const Status post = (*store)->Put("post-recovery", fill_value);
  check("store writable after recovery", post.ok());
  Samples healthy_reads = MeasureReads(store->get(), 11, kReadOps);
  const double degraded_p99 = degraded_reads.Percentile(99);
  const double healthy_p99 = healthy_reads.Percentile(99);
  const double ratio = healthy_p99 > 0 ? degraded_p99 / healthy_p99 : 0;
  Table t4({"reclaim freed", "recovered via", "healthy p99 ms",
            "degraded p99 ms", "degraded/healthy"});
  t4.AddRow({MiB(freed), reclaim_recovered ? "reclaim" : "budget override",
             Fmt(healthy_p99), Fmt(degraded_p99), Fmt(ratio, 2) + "x"});
  t4.Print();
  check("degraded read p99 within budget", ratio <= kDegradedP99Budget);

  Section("resource health section");
  std::printf("%s", governor.BuildHealthSection().Text().c_str());

  (void)RemoveDirRecursively(*dir);
  if (gate) {
    std::printf("\n%s\n", gate_status == 0 ? "GATE OK" : "GATE FAILED");
    return gate_status;
  }
  return 0;
}
