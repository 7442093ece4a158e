// Ablation — heartbeat interval Δ (§IV-B).
//
// Heartbeats keep remote version vectors advancing when a partition serves no
// PUTs; they are what unblocks parked POCC requests whose (spurious or real)
// dependencies have already been subsumed by time. Larger Δ means longer
// blocking times and, past a point, more blocked operations.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: heartbeat interval",
               "POCC blocking vs heartbeat interval Δ", scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 8;
  wl.think_time_us = 2'000;  // short think time exposes VV staleness...

  const Duration sweep[] = {500, 1'000, 2'000, 5'000, 10'000, 20'000};
  print_row({"Δ (ms)", "Mops/s", "block prob", "avg block (ms)"});
  print_csv_header("abl_heartbeat",
                   {"delta_ms", "mops", "block_prob", "avg_block_ms"});
  for (Duration delta : sweep) {
    auto cfg = paper_config(SystemKind::kPocc, scale.partitions(),
                            /*seed=*/9000 + delta);
    cfg.protocol.heartbeat_interval_us = delta;
    // ...while the moderate client count keeps the CPUs un-saturated, so the
    // effect measured is Δ itself, not queueing backlog.
    const auto m = run_point(cfg, wl, 16, scale.warmup_us(),
                             scale.measure_us());
    print_row({fmt(static_cast<double>(delta) / 1e3, 3),
               fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking.blocking_probability(), 3),
               fmt(m.blocking.avg_blocking_time_us() / 1e3, 4)});
    print_csv_row({fmt(static_cast<double>(delta) / 1e3, 3),
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking.blocking_probability(), 3),
                   fmt(m.blocking.avg_blocking_time_us() / 1e3, 4)});
  }
  std::printf(
      "\nExpected: blocking time grows with Δ (parked requests wait for the\n"
      "next heartbeat); throughput is largely insensitive until Δ is large.\n");
  return 0;
}
