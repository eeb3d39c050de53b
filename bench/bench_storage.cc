// M1: storage substrate microbenchmarks — KV store put/get/scan,
// SSTable build, bloom filter probes, external sort throughput.
//
// `--gate` skips the microbenchmarks and runs the mixed reader/writer
// gate instead: readers measure Get p99 on a fixed working set while a
// writer thread forces continuous background flushes and compactions.
// The gate fails when the read p99 under active maintenance exceeds 2x
// the quiescent p99 on the same layout (background work must not block
// the read path), when maintenance did not actually run, or when any
// read errors.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "storage/bloom.h"
#include "storage/external_sorter.h"
#include "storage/kv_store.h"

namespace saga::storage {
namespace {

std::string KeyOf(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key:%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_KvPut(benchmark::State& state) {
  auto dir = MakeTempDir("bench_kv_put");
  KvStore::Options opts;
  opts.use_wal = state.range(0) != 0;
  auto store = KvStore::Open(*dir, opts);
  uint64_t i = 0;
  const std::string value(100, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.value()->Put(KeyOf(i++), value));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(opts.use_wal ? "wal" : "no-wal");
  (void)RemoveDirRecursively(*dir);
}
BENCHMARK(BM_KvPut)->Arg(0)->Arg(1);

void BM_KvPutDurable(benchmark::State& state) {
  // The fsync-per-write path: an OK Put is durable. Orders of magnitude
  // slower than buffered WAL appends — this is the price of the crash
  // contract documented in DESIGN.md ("Durability & failure model").
  auto dir = MakeTempDir("bench_kv_put_sync");
  KvStore::Options opts;
  opts.sync_every_write = true;
  auto store = KvStore::Open(*dir, opts);
  uint64_t i = 0;
  const std::string value(100, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.value()->Put(KeyOf(i++), value));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("fsync-every-write");
  (void)RemoveDirRecursively(*dir);
}
BENCHMARK(BM_KvPutDurable);

void BM_KvGetHit(benchmark::State& state) {
  auto dir = MakeTempDir("bench_kv_get");
  auto store = KvStore::Open(*dir);
  const uint64_t n = 20000;
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < n; ++i) {
    (void)store.value()->Put(KeyOf(i), value);
  }
  (void)store.value()->Flush();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.value()->Get(KeyOf(rng.Uniform(n))));
  }
  state.SetItemsProcessed(state.iterations());
  (void)RemoveDirRecursively(*dir);
}
BENCHMARK(BM_KvGetHit);

void BM_KvGetMissBloomEffect(benchmark::State& state) {
  // Many SSTables: blooms should keep misses cheap.
  auto dir = MakeTempDir("bench_kv_miss");
  auto store = KvStore::Open(*dir);
  for (int table = 0; table < 8; ++table) {
    for (uint64_t i = 0; i < 2000; ++i) {
      (void)store.value()->Put(
          KeyOf(static_cast<uint64_t>(table) * 1000000 + i), "v");
    }
    (void)store.value()->Flush();
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.value()->Get("absent:" + std::to_string(rng.NextUint64())));
  }
  state.SetItemsProcessed(state.iterations());
  const auto& stats = store.value()->stats();
  state.counters["bloom_skip_ratio"] =
      static_cast<double>(stats.bloom_skips) /
      std::max<uint64_t>(1, stats.bloom_skips + stats.sstable_probes);
  (void)RemoveDirRecursively(*dir);
}
BENCHMARK(BM_KvGetMissBloomEffect);

void BM_KvScanPrefix(benchmark::State& state) {
  auto dir = MakeTempDir("bench_kv_scan");
  auto store = KvStore::Open(*dir);
  for (uint64_t i = 0; i < 10000; ++i) {
    (void)store.value()->Put(KeyOf(i), "v");
  }
  (void)store.value()->Flush();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.value()->ScanPrefix("key:00000000"));
  }
  (void)RemoveDirRecursively(*dir);
}
BENCHMARK(BM_KvScanPrefix);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter bloom(100000, static_cast<int>(state.range(0)));
  for (uint64_t i = 0; i < 100000; ++i) bloom.Add(KeyOf(i));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bloom.MayContain(KeyOf(rng.Uniform(200000))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe)->Arg(6)->Arg(10)->Arg(14);

void BM_ExternalSort(benchmark::State& state) {
  const size_t budget = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto dir = MakeTempDir("bench_sorter");
    ExternalSorter::Options opts;
    opts.memory_budget_bytes = budget;
    opts.spill_dir = *dir;
    ExternalSorter sorter(opts);
    Rng rng(4);
    state.ResumeTiming();
    for (int i = 0; i < 20000; ++i) {
      (void)sorter.Add(KeyOf(rng.NextUint64() % 100000), "payload");
    }
    auto it = sorter.Sort();
    size_t n = 0;
    while (it.value()->Valid()) {
      ++n;
      (void)it.value()->Next();
    }
    benchmark::DoNotOptimize(n);
    state.PauseTiming();
    (void)RemoveDirRecursively(*dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel("budget=" + std::to_string(budget));
}
BENCHMARK(BM_ExternalSort)->Arg(16 << 10)->Arg(1 << 20)->Arg(64 << 20);

}  // namespace
}  // namespace saga::storage

namespace saga::bench {
namespace {

constexpr int kGateKeys = 20000;
constexpr size_t kGateValueBytes = 128;
constexpr int kQuiescentReadOps = 30000;
constexpr int kMixedReadOpsPerThread = 12000;
constexpr int kGateReaderThreads = 3;
constexpr double kMixedP99Budget = 2.0;  // x quiescent p99
// Absolute floor: on a loaded CI runner a single descheduling blip can
// multiply a sub-50us quiescent p99 many times over without the store
// being at fault. The ratio check only engages above this latency.
constexpr double kMixedP99FloorMs = 0.25;

std::string GateKey(int i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "gate:%08d", i);
  return buf;
}

// Each caller owns its Samples (single writer); the owner merges
// per-thread results after the readers join.
Samples MeasureGateReads(storage::KvStore* store, uint64_t seed, int ops,
                         std::atomic<uint64_t>* read_errors) {
  Rng rng(seed);
  Samples ms;
  for (int i = 0; i < ops; ++i) {
    const std::string key = GateKey(static_cast<int>(rng.Uniform(kGateKeys)));
    Stopwatch sw;
    auto got = store->Get(key);
    if (got.ok()) {
      ms.Add(sw.ElapsedMillis());
    } else if (read_errors != nullptr) {
      read_errors->fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ms;
}

int RunMixedGate() {
  SetMinLogLevel(LogLevel::kWarning);
  int gate_status = 0;
  auto check = [&](const char* what, bool ok) {
    if (!ok) {
      std::printf("GATE FAIL: %s\n", what);
      gate_status = 1;
    }
  };

  ObsSession obs;
  auto dir = MakeTempDir("bench_kv_mixed_gate");
  storage::KvStore::Options opts;
  opts.background_maintenance = true;
  opts.memtable_max_bytes = 64 << 10;
  opts.auto_compact_trigger = 4;
  opts.max_immutable_memtables = 8;
  auto store = storage::KvStore::Open(*dir, opts);
  check("store opens", store.ok());
  if (!store.ok()) return 1;

  // ---- Phase 1: preload + quiescent baseline -----------------------
  Section("phase 1: preload + quiescent read baseline");
  const std::string value(kGateValueBytes, 'v');
  for (int i = 0; i < kGateKeys; ++i) {
    while (!(*store)->Put(GateKey(i), value).ok()) {
      (*store)->WaitForMaintenance();
    }
  }
  (void)(*store)->Flush();
  (*store)->WaitForMaintenance();
  (void)(*store)->CompactAll();
  std::atomic<uint64_t> read_errors{0};
  (void)MeasureGateReads(store->get(), 7, kQuiescentReadOps / 3,
                         nullptr);  // warm
  Samples quiescent =
      MeasureGateReads(store->get(), 11, kQuiescentReadOps, &read_errors);
  check("quiescent reads all hit", read_errors.load() == 0);
  Table t1({"keys", "sstables", "quiescent p50 ms", "quiescent p99 ms"});
  t1.AddRow({std::to_string(kGateKeys),
             std::to_string((*store)->num_sstables()), Fmt(quiescent.Percentile(50)),
             Fmt(quiescent.Percentile(99))});
  t1.Print();

  // ---- Phase 2: reads while background maintenance churns ----------
  Section("phase 2: reads under background flush + compaction");
  const uint64_t flushes_before = (*store)->stats().flushes;
  const uint64_t compactions_before = (*store)->stats().compactions;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes_acked{0};
  std::atomic<uint64_t> write_sheds{0};
  std::thread writer([&] {
    const std::string churn(kGateValueBytes, 'w');
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Status s = (*store)->Put("churn:" + std::to_string(i++), churn);
      if (s.ok()) {
        writes_acked.fetch_add(1, std::memory_order_relaxed);
      } else if (s.IsResourceExhausted()) {
        // Stall shed: back off until the backlog drains, then resume.
        write_sheds.fetch_add(1, std::memory_order_relaxed);
        (*store)->WaitForMaintenance();
      }
    }
  });
  std::vector<Samples> per_thread(kGateReaderThreads);
  std::vector<std::thread> readers;
  readers.reserve(kGateReaderThreads);
  for (int t = 0; t < kGateReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      per_thread[static_cast<size_t>(t)] = MeasureGateReads(
          store->get(), 100 + static_cast<uint64_t>(t),
          kMixedReadOpsPerThread, &read_errors);
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  (*store)->WaitForMaintenance();

  Samples mixed;
  for (const auto& h : per_thread) mixed.Merge(h);
  const uint64_t flushes = (*store)->stats().flushes - flushes_before;
  const uint64_t compactions =
      (*store)->stats().compactions - compactions_before;
  const double quiescent_p99 = quiescent.Percentile(99);
  const double mixed_p99 = mixed.Percentile(99);
  const double ratio = quiescent_p99 > 0 ? mixed_p99 / quiescent_p99 : 0;
  Table t2({"reads", "writes acked", "sheds", "bg flushes", "bg compactions",
            "mixed p50 ms", "mixed p99 ms", "mixed/quiescent"});
  t2.AddRow({std::to_string(mixed.count()),
             std::to_string(writes_acked.load()),
             std::to_string(write_sheds.load()), std::to_string(flushes),
             std::to_string(compactions), Fmt(mixed.Percentile(50)),
             Fmt(mixed_p99), Fmt(ratio, 2) + "x"});
  t2.Print();

  check("background flushes ran during the mixed phase", flushes > 0);
  check("background compactions ran during the mixed phase",
        compactions > 0);
  check("no read errored", read_errors.load() == 0);
  check("no background maintenance error",
        (*store)->background_error().ok());
  check("mixed read p99 <= 2x quiescent (above noise floor)",
        mixed_p99 <= std::max(kMixedP99Budget * quiescent_p99,
                              kMixedP99FloorMs));

  store->reset();
  (void)RemoveDirRecursively(*dir);
  std::printf("\n%s\n", gate_status == 0 ? "GATE OK" : "GATE FAILED");
  return gate_status;
}

}  // namespace
}  // namespace saga::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      return saga::bench::RunMixedGate();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
