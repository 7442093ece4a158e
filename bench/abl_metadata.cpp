// Ablation — dependency-tracking granularity (§III-A / §IV).
//
// The paper argues dependency vectors (one entry per DC) hit the sweet spot
// between metadata size and tracking precision, noting coarser tracking
// "might cause a client's request to be (uselessly) stalled because of a
// potentially unresolved dependency that does not correspond to any real
// dependency". This harness compares POCC's vector granularity against the
// scalar endpoint of the spectrum (GentleRain-style single timestamp),
// measuring the spurious-stall and snapshot-staleness cost of coarsening.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: dependency granularity",
               "vector-clock POCC vs scalar-clock OCC", scale);

  print_row({"workload", "system", "Mops/s", "stall prob", "block(ms)",
             "% old"});
  print_csv_header("abl_metadata", {"workload", "system", "mops",
                                    "stall_prob", "avg_block_ms", "pct_old"});
  const SystemKind systems[] = {SystemKind::kPocc,
                                         SystemKind::kScalarPocc};

  // Read-dominated workload with a short think time: coarse dependencies
  // cause spurious GET stalls.
  for (auto system : systems) {
    workload::WorkloadConfig wl = paper_workload();
    wl.gets_per_put = 8;
    wl.think_time_us = 2'000;
    const auto cfg =
        paper_config(system, scale.partitions(), /*seed=*/9400);
    const auto m = run_point(cfg, wl, 16, scale.warmup_us(),
                             scale.measure_us());
    const char* name = system_name(system);
    print_row({"get-put", name, fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking_probability, 3),
               fmt(m.blocked_us.mean() / 1e3, 4),
               fmt(m.pct_old, 3)});
    print_csv_row({"get-put", name, fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking_probability, 3),
                   fmt(m.blocked_us.mean() / 1e3, 4),
                   fmt(m.pct_old, 3)});
  }

  // Transactional workload: the scalar snapshot falls back to a GST-like cut,
  // giving up POCC's snapshot freshness (Fig. 3d's advantage shrinks).
  for (auto system : systems) {
    workload::WorkloadConfig wl = paper_workload();
    wl.pattern = workload::Pattern::kTxPut;
    wl.tx_partitions = scale.partitions() / 2;
    wl.think_time_us = 10'000;
    const auto cfg =
        paper_config(system, scale.partitions(), /*seed=*/9401);
    const auto m = run_point(cfg, wl, 32, scale.warmup_us(),
                             scale.measure_us());
    const char* name = system_name(system);
    print_row({"tx-put", name, fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking_probability, 3),
               fmt(m.blocked_us.mean() / 1e3, 4),
               fmt(m.pct_old, 3)});
    print_csv_row({"tx-put", name, fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking_probability, 3),
                   fmt(m.blocked_us.mean() / 1e3, 4),
                   fmt(m.pct_old, 3)});
  }
  std::printf(
      "\nExpected: scalar tracking stalls reads more often (spurious\n"
      "dependencies) and returns staler transactional snapshots; vector\n"
      "tracking pays M timestamps per message for the precision (§IV).\n");
  return 0;
}
