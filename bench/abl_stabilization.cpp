// Ablation — Cure* stabilization period (§V-B).
//
// The paper notes that a longer stabilization period lets Cure* reach higher
// throughput (less protocol overhead) at the cost of increased staleness —
// and that "POCC is immune to this trade-off". This harness sweeps the GSS
// period for Cure* and prints a POCC reference line.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: stabilization period",
               "Cure* staleness/throughput vs GSS period (POCC immune)",
               scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 8;
  wl.think_time_us = 10'000;

  const Duration sweep[] = {1'000, 5'000, 10'000, 25'000, 50'000};
  print_row({"period (ms)", "system", "Mops/s", "% old", "% unmerged",
             "stab msgs"});
  print_csv_header("abl_stabilization", {"period_ms", "system", "mops",
                                         "pct_old", "pct_unmerged",
                                         "stab_messages"});
  for (Duration period : sweep) {
    auto cfg = paper_config(SystemKind::kCure, scale.partitions(),
                            /*seed=*/9100 + period);
    cfg.protocol.stabilization_interval_us = period;
    const auto m = run_point(cfg, wl, 96, scale.warmup_us(),
                             scale.measure_us());
    print_row({fmt(static_cast<double>(period) / 1e3, 3), "Cure*",
               fmt_mops(m.throughput_ops_per_sec),
               fmt(m.pct_old, 3),
               fmt(m.pct_unmerged, 3),
               std::to_string(m.network.stabilization_messages)});
    print_csv_row({fmt(static_cast<double>(period) / 1e3, 3), "Cure*",
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.pct_old, 3),
                   fmt(m.pct_unmerged, 3),
                   std::to_string(m.network.stabilization_messages)});
  }
  {
    const auto cfg = paper_config(SystemKind::kPocc,
                                  scale.partitions(), /*seed=*/9199);
    const auto m = run_point(cfg, wl, 96, scale.warmup_us(),
                             scale.measure_us());
    print_row({"-", "POCC", fmt_mops(m.throughput_ops_per_sec),
               fmt(m.pct_old, 3), "0",
               std::to_string(m.network.stabilization_messages)});
    print_csv_row({"0", "POCC", fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.pct_old, 3), "0",
                   std::to_string(m.network.stabilization_messages)});
  }
  std::printf(
      "\nExpected: Cure* staleness grows with the period; POCC reads stay\n"
      "fresh with zero stabilization traffic.\n");
  return 0;
}
