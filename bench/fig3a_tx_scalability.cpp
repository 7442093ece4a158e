// Figure 3a — "Throughput while varying number of contacted partitions per
// transaction" (RO-TX(p) + random PUT workload, §V-C).
//
// Paper shape: POCC and Cure* are comparable at small p, with POCC generally
// slightly ahead; the gap grows (up to ~15%) when transactions touch the
// majority of the partitions, because POCC is more resource efficient (no
// stabilization, no chain search).
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 3a",
               "throughput vs partitions contacted per RO-TX", scale);

  print_row({"tx parts", "Cure* (Mops/s)", "POCC (Mops/s)", "POCC/Cure*"});
  print_csv_header("fig3a", {"tx_partitions", "cure_mops", "pocc_mops",
                             "ratio"});
  for (std::uint32_t p : scale.tx_partition_sweep()) {
    workload::WorkloadConfig wl = paper_workload();
    wl.pattern = workload::Pattern::kTxPut;
    wl.tx_partitions = p;
    double mops[2] = {0.0, 0.0};
    const SystemKind systems[2] = {SystemKind::kCure,
                                            SystemKind::kPocc};
    for (int s = 0; s < 2; ++s) {
      const auto cfg =
          paper_config(systems[s], scale.partitions(), /*seed=*/5000 + p);
      const auto m = run_point(cfg, wl, scale.saturating_clients(),
                               scale.warmup_us(), scale.measure_us());
      mops[s] = m.throughput_ops_per_sec;
    }
    print_row({std::to_string(p), fmt_mops(mops[0]), fmt_mops(mops[1]),
               fmt(mops[0] > 0 ? mops[1] / mops[0] : 0.0, 3)});
    print_csv_row({std::to_string(p), fmt_mops(mops[0]), fmt_mops(mops[1]),
                   fmt(mops[0] > 0 ? mops[1] / mops[0] : 0.0, 3)});
  }
  std::printf(
      "\nExpected shape (paper): POCC >= Cure*, the advantage growing with\n"
      "the number of contacted partitions (up to ~15%%).\n");
  return 0;
}
