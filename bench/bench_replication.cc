// Replicated-serving bench (DESIGN.md "Replication & failover").
// Everything runs on the simulation's logical clock, so the numbers of
// interest are *logical* milliseconds (protocol round trips under the
// transport's configured latencies) plus the wall-clock cost of
// pumping the simulation itself:
//
//   1. quorum write cost  — logical ms from LeaderAppend to quorum
//      commit, per group size, on a healthy 1ms-latency network.
//   2. failover latency   — logical ms from leader kill to the next
//      leader's first committed record, across many seeds (this is
//      the serving gap a client actually sees).
//   3. lossy network      — acked-write success and commit latency
//      under increasing drop/reorder probabilities.
//   4. catch-up           — logical ms for a healed follower to drain
//      its lag after missing N committed records.
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "replication/replica_group.h"

namespace saga::bench {
namespace {

using replication::ReplicaGroup;

std::unique_ptr<ReplicaGroup> NewGroup(int replicas, uint64_t seed,
                                       double drop_p = 0.0,
                                       double reorder_p = 0.0) {
  ReplicaGroup::Options o;
  o.num_replicas = replicas;
  o.seed = seed;
  auto group = ReplicaGroup::Create(o);
  if (!group.ok()) std::abort();
  if (drop_p > 0 || reorder_p > 0) {
    (*group)->SetFaultProfile(drop_p, /*duplicate_p=*/0.0, reorder_p,
                              /*jitter_ms=*/1.0);
  }
  return std::move(*group);
}

void BenchQuorumWrite() {
  std::printf("\n=== quorum write cost (healthy network, 1ms links) ===\n");
  Table table({"replicas", "writes", "acked", "logical ms/write (mean)",
               "wall us/write"});
  for (int replicas : {1, 3, 5}) {
    auto group = NewGroup(replicas, 0xBE7C + static_cast<uint64_t>(replicas));
    // Warm: elect a leader before timing.
    group->StepUntil([&] { return group->LeaderId() >= 0; }, 3000);
    const int kWrites = 200;
    int acked = 0;
    Samples logical_ms;
    Stopwatch wall;
    for (int i = 0; i < kWrites; ++i) {
      const double before = group->now_ms();
      if (group->Put("k" + std::to_string(i), "v").ok()) {
        ++acked;
        logical_ms.Add(group->now_ms() - before);
      }
    }
    const double wall_us = wall.ElapsedMicros() / kWrites;
    table.AddRow({std::to_string(replicas), std::to_string(kWrites),
                  std::to_string(acked),
                  Fmt(logical_ms.Mean(), 2),
                  Fmt(wall_us, 1)});
  }
  table.Print();
}

void BenchFailover() {
  std::printf("\n=== failover latency (leader kill -> next commit) ===\n");
  const int kRuns = 50;
  Samples detect_elect_ms;
  int recovered = 0;
  for (int run = 0; run < kRuns; ++run) {
    auto group = NewGroup(3, 0xFA11 + 977 * static_cast<uint64_t>(run));
    if (!group->Put("warm", "up").ok()) continue;
    const int old_leader = group->LeaderId();
    const double killed_at = group->now_ms();
    group->Crash(old_leader);
    // The client-visible gap: from the kill to the next acked write
    // (covers detection timeout, election, no-op commit).
    if (group->Put("after", "failover").ok()) {
      ++recovered;
      detect_elect_ms.Add(group->now_ms() - killed_at);
    }
  }
  std::printf("recovered %d/%d runs\n", recovered, kRuns);
  std::printf("serving gap (logical ms): n=%zu mean=%s p50=%s p95=%s "
              "p99=%s max=%s\n",
              detect_elect_ms.count(), Fmt(detect_elect_ms.Mean()).c_str(),
              Fmt(detect_elect_ms.Percentile(50)).c_str(),
              Fmt(detect_elect_ms.Percentile(95)).c_str(),
              Fmt(detect_elect_ms.Percentile(99)).c_str(),
              Fmt(detect_elect_ms.Percentile(100)).c_str());
}

void BenchLossyNetwork() {
  std::printf("\n=== acked writes under a lossy network (3 replicas) ===\n");
  Table table({"drop", "reorder", "acked/200", "logical ms/write (p99)",
               "transport drops"});
  for (double loss : {0.0, 0.05, 0.15, 0.30}) {
    auto group =
        NewGroup(3, 0x70C5 + static_cast<uint64_t>(loss * 100), loss, loss);
    group->StepUntil([&] { return group->LeaderId() >= 0; }, 3000);
    const int kWrites = 200;
    int acked = 0;
    Samples logical_ms;
    for (int i = 0; i < kWrites; ++i) {
      const double before = group->now_ms();
      if (group->Put("k" + std::to_string(i), "v").ok()) {
        ++acked;
        logical_ms.Add(group->now_ms() - before);
      }
    }
    table.AddRow({Fmt(loss, 2), Fmt(loss, 2),
                  std::to_string(acked),
                  Fmt(logical_ms.Percentile(99), 2),
                  std::to_string(group->transport().stats().dropped)});
  }
  table.Print();
}

void BenchCatchUp() {
  std::printf("\n=== follower catch-up after partition heal ===\n");
  Table table({"missed records", "catch-up (logical ms)"});
  for (int missed : {16, 64, 256}) {
    auto group = NewGroup(3, 0xCA7C + static_cast<uint64_t>(missed));
    if (!group->Put("warm", "up").ok()) continue;
    const int lid = group->LeaderId();
    const int lagger = (lid + 1) % group->num_replicas();
    group->PartitionNode(lagger);
    for (int i = 0; i < missed; ++i) {
      (void)group->Put("k" + std::to_string(i), "v");
    }
    group->HealAll();
    const double healed_at = group->now_ms();
    group->StepUntil([&] { return group->LagOf(lagger) == 0; }, 60000);
    table.AddRow({std::to_string(missed),
                  Fmt(group->now_ms() - healed_at, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace saga::bench

int main() {
  saga::bench::BenchQuorumWrite();
  saga::bench::BenchFailover();
  saga::bench::BenchLossyNetwork();
  saga::bench::BenchCatchUp();
  return 0;
}
