// Figure 1c — "Throughput on 32 partitions with different GET:PUT
// workloads" — sensitivity to write intensity (ratios 32:1 down to 1:1).
//
// Paper shape: throughput decreases as write intensity grows for both
// systems; the degradation is more pronounced for POCC (blocking becomes more
// likely at higher update rates), with a worst-case loss of ~10% at 2:1.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 1c", "throughput vs GET:PUT ratio", scale);

  const std::uint32_t ratios[] = {32, 16, 8, 4, 2, 1};

  print_row({"GET:PUT", "Cure* (Mops/s)", "POCC (Mops/s)", "POCC/Cure*"});
  print_csv_header("fig1c", {"ratio", "cure_mops", "pocc_mops", "rel"});
  for (std::uint32_t ratio : ratios) {
    workload::WorkloadConfig wl = paper_workload();
    wl.gets_per_put = ratio;
    double mops[2] = {0.0, 0.0};
    const SystemKind systems[2] = {SystemKind::kCure,
                                            SystemKind::kPocc};
    for (int s = 0; s < 2; ++s) {
      const auto cfg =
          paper_config(systems[s], scale.partitions(), /*seed=*/3000 + ratio);
      const auto m = run_point(cfg, wl, scale.saturating_clients(),
                               scale.warmup_us(), scale.measure_us());
      mops[s] = m.throughput_ops_per_sec;
    }
    print_row({std::to_string(ratio) + ":1", fmt_mops(mops[0]),
               fmt_mops(mops[1]),
               fmt(mops[0] > 0 ? mops[1] / mops[0] : 0.0, 3)});
    print_csv_row({std::to_string(ratio), fmt_mops(mops[0]),
                   fmt_mops(mops[1]),
                   fmt(mops[0] > 0 ? mops[1] / mops[0] : 0.0, 3)});
  }
  std::printf(
      "\nExpected shape (paper): both drop as writes increase; POCC stays\n"
      "within ~10%% of Cure* (worst around the 2:1 ratio).\n");
  return 0;
}
