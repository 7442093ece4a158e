// Ablation — HA-POCC failover (§III-B, §IV-C; the paper leaves the
// quantitative evaluation of partitions to future work — this harness
// provides it on the simulated deployment).
//
// Timeline: run a Get-Put workload, inject a DC0–DC1 partition, observe
// sessions falling back to the pessimistic protocol, heal, observe
// promotion. Reported per 100 ms window: completed operations and cumulative
// session fallbacks, for plain POCC (blocks, no fallback) vs HA-POCC.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

namespace {

struct Timeline {
  std::vector<double> ops_per_window;  // completed ops per 100 ms window
  std::uint64_t fallbacks = 0;
  std::uint64_t blocked_at_end = 0;
};

Timeline run_timeline(SystemKind system, const Scale& scale) {
  auto cfg = paper_config(system, scale.partitions(), /*seed=*/42);
  cfg.protocol.block_timeout_us = 150'000;
  cluster::SimCluster sim_cluster(cfg);
  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 4;
  wl.think_time_us = 10'000;
  sim_cluster.add_workload_clients(16, wl);

  constexpr Duration kWindow = 100'000;
  constexpr int kWarmupWindows = 4;
  constexpr int kPartitionAt = 8;    // window index when the partition starts
  constexpr int kHealAt = 16;        // window index when it heals
  constexpr int kTotalWindows = 24;

  Timeline t;
  std::uint64_t prev_ops = 0;
  sim_cluster.run_for(kWarmupWindows * kWindow);
  sim_cluster.begin_measurement();
  for (int w = 0; w < kTotalWindows; ++w) {
    if (w == kPartitionAt) sim_cluster.partition_dcs(0, 1);
    if (w == kHealAt) sim_cluster.heal_dcs(0, 1);
    sim_cluster.run_for(kWindow);
    std::uint64_t ops = 0;
    for (const auto& c : sim_cluster.clients()) ops += c->completed_ops();
    t.ops_per_window.push_back(static_cast<double>(ops - prev_ops));
    prev_ops = ops;
  }
  const auto m = sim_cluster.end_measurement();
  t.fallbacks = m.session_fallbacks;
  t.blocked_at_end = sim_cluster.total_parked_requests();
  sim_cluster.stop_clients();
  return t;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: HA failover",
               "availability through a partition: POCC vs HA-POCC", scale);
  std::printf("partition injected at window 8 (DC0-DC1), healed at 16; "
              "100 ms windows\n\n");

  const Timeline pocc = run_timeline(SystemKind::kPocc, scale);
  const Timeline ha = run_timeline(SystemKind::kHaPocc, scale);

  print_row({"window", "POCC ops", "HA-POCC ops", "phase"});
  print_csv_header("abl_ha_failover",
                   {"window", "pocc_ops", "ha_pocc_ops", "phase"});
  for (std::size_t w = 0; w < pocc.ops_per_window.size(); ++w) {
    const char* phase = w < 8 ? "healthy" : (w < 16 ? "PARTITION" : "healed");
    print_row({std::to_string(w), fmt(pocc.ops_per_window[w], 5),
               fmt(ha.ops_per_window[w], 5), phase});
    print_csv_row({std::to_string(w), fmt(pocc.ops_per_window[w], 5),
                   fmt(ha.ops_per_window[w], 5), phase});
  }
  std::printf("\nsession fallbacks: POCC=%llu HA-POCC=%llu\n",
              static_cast<unsigned long long>(pocc.fallbacks),
              static_cast<unsigned long long>(ha.fallbacks));
  std::printf("requests still blocked at end: POCC=%llu HA-POCC=%llu\n",
              static_cast<unsigned long long>(pocc.blocked_at_end),
              static_cast<unsigned long long>(ha.blocked_at_end));
  std::printf(
      "\nExpected: plain POCC accumulates blocked requests during the\n"
      "partition (those clients stall); HA-POCC closes blocked sessions,\n"
      "falls back to pessimistic mode, keeps serving, and recovers fully\n"
      "after the heal.\n");
  return 0;
}
