// Figure 2 — "Blocking incidence in POCC and perceived data staleness in
// Cure* (32 partitions, 32:1 GET:PUT workload)".
//
//  * Fig. 2a: probability that an operation blocks in POCC and the average
//    blocking time of blocked operations, as functions of throughput.
//  * Fig. 2b: percentage of old / unmerged items returned by Cure* and the
//    number of fresher / unmerged versions in the affected chains.
//
// Paper shape: POCC blocking probability is negligible (<1e-3) until the
// throughput approaches saturation, then rises above 1e-2 with ms-scale
// blocking times. Cure*'s %old approaches ~15% and %unmerged ~10% near
// saturation (30% overloaded) — POCC's GETs are never stale by construction.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 2",
               "POCC blocking (2a) and Cure* staleness (2b), 32:1 GET:PUT",
               scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 32;

  std::printf("--- Fig. 2a: blocking behavior in POCC ---\n");
  print_row({"clients/part", "Mops/s", "block prob", "avg block (ms)",
             "p99 block (ms)"});
  print_csv_header("fig2a", {"clients_per_partition", "mops", "block_prob",
                             "avg_block_ms", "p99_block_ms"});
  for (std::uint32_t clients : scale.client_sweep()) {
    const auto cfg = paper_config(SystemKind::kPocc,
                                  scale.partitions(), /*seed=*/4000 + clients);
    const auto m =
        run_point(cfg, wl, clients, scale.warmup_us(), scale.measure_us());
    const double avg_block_ms = m.blocking.avg_blocking_time_us() / 1e3;
    const double p99_block_ms =
        static_cast<double>(m.blocking.blocked_time_us.percentile(99)) / 1e3;
    print_row({std::to_string(clients), fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking.blocking_probability(), 3),
               fmt(avg_block_ms, 4), fmt(p99_block_ms, 4)});
    print_csv_row({std::to_string(clients),
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking.blocking_probability(), 3),
                   fmt(avg_block_ms, 4), fmt(p99_block_ms, 4)});
  }

  std::printf("\n--- Fig. 2b: data staleness in Cure* ---\n");
  print_row({"clients/part", "Mops/s", "% old", "% unmerged",
             "# fresher", "# unmerged"});
  print_csv_header("fig2b", {"clients_per_partition", "mops", "pct_old",
                             "pct_unmerged", "fresher_versions",
                             "unmerged_versions"});
  for (std::uint32_t clients : scale.client_sweep()) {
    const auto cfg = paper_config(SystemKind::kCure,
                                  scale.partitions(), /*seed=*/4100 + clients);
    const auto m =
        run_point(cfg, wl, clients, scale.warmup_us(), scale.measure_us());
    print_row({std::to_string(clients), fmt_mops(m.throughput_ops_per_sec),
               fmt(m.staleness.pct_old(), 3),
               fmt(m.staleness.pct_unmerged(), 3),
               fmt(m.staleness.avg_fresher_versions(), 3),
               fmt(m.staleness.avg_unmerged_versions(), 3)});
    print_csv_row({std::to_string(clients),
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.staleness.pct_old(), 3),
                   fmt(m.staleness.pct_unmerged(), 3),
                   fmt(m.staleness.avg_fresher_versions(), 3),
                   fmt(m.staleness.avg_unmerged_versions(), 3)});
  }
  std::printf(
      "\nExpected shape (paper): POCC blocking negligible until near\n"
      "saturation, then noticeable; Cure* staleness grows with load.\n"
      "POCC GETs are never old/unmerged (returned version is the freshest\n"
      "received, §V-B).\n");
  return 0;
}
