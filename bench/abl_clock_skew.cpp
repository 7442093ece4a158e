// Ablation — physical clock skew.
//
// POCC's correctness never depends on synchronization precision (§IV), but
// performance does: dependency vectors carry physical timestamps, so skew
// inflates the PUT wait (Alg. 2 line 7) and produces spurious dependency
// stalls. This sweep quantifies that sensitivity.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: clock skew",
               "POCC blocking and latency vs clock offset sigma", scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 8;
  wl.think_time_us = 5'000;

  const double sweep_us[] = {0.0, 500.0, 1'000.0, 5'000.0, 10'000.0,
                             50'000.0};
  print_row({"skew σ (ms)", "Mops/s", "block prob", "avg block (ms)",
             "avg resp (ms)"});
  print_csv_header("abl_clock_skew", {"sigma_ms", "mops", "block_prob",
                                      "avg_block_ms", "avg_resp_ms"});
  for (double sigma : sweep_us) {
    auto cfg = paper_config(SystemKind::kPocc, scale.partitions(),
                            /*seed=*/9200 + static_cast<std::uint64_t>(sigma));
    cfg.clock.offset_sigma_us = sigma;     // intra-DC (LAN) error
    cfg.clock.dc_offset_sigma_us = sigma;  // cross-DC (WAN) error
    const auto m = run_point(cfg, wl, 64, scale.warmup_us(),
                             scale.measure_us());
    print_row({fmt(sigma / 1e3, 3), fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking_probability, 3),
               fmt(m.blocked_us.mean() / 1e3, 4),
               fmt(m.avg_latency_us / 1e3, 4)});
    print_csv_row({fmt(sigma / 1e3, 3), fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking_probability, 3),
                   fmt(m.blocked_us.mean() / 1e3, 4),
                   fmt(m.avg_latency_us / 1e3, 4)});
  }
  std::printf(
      "\nExpected: blocking probability and PUT waits grow with skew, while\n"
      "consistency is never violated (see the property test suite).\n");
  return 0;
}
