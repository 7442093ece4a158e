// Figure 1a — "Throughput while varying the number of partitions."
//
// Workload (§V-B): GET:PUT = p:1 where p is the number of partitions; each
// GET targets a different partition, the PUT a uniformly random one. The
// paper reports that POCC and Cure* achieve essentially the same maximum
// throughput at every partition count.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 1a",
               "max throughput vs #partitions (GET:PUT = p:1, zipf 0.99)",
               scale);

  print_row({"partitions", "Cure* (Mops/s)", "POCC (Mops/s)", "POCC/Cure*"});
  print_csv_header("fig1a",
                   {"partitions", "cure_mops", "pocc_mops", "ratio"});
  for (std::uint32_t parts : scale.partition_sweep()) {
    workload::WorkloadConfig wl = paper_workload();
    wl.gets_per_put = parts;  // GET:PUT ratio p:1

    double mops[2] = {0.0, 0.0};
    const SystemKind systems[2] = {SystemKind::kCure,
                                            SystemKind::kPocc};
    for (int s = 0; s < 2; ++s) {
      const auto cfg = paper_config(systems[s], parts, /*seed=*/1000 + parts);
      const auto m = run_point(cfg, wl, scale.saturating_clients(),
                               scale.warmup_us(), scale.measure_us());
      mops[s] = m.throughput_ops_per_sec;
    }
    const double ratio = mops[0] > 0 ? mops[1] / mops[0] : 0.0;
    print_row({std::to_string(parts), fmt_mops(mops[0]), fmt_mops(mops[1]),
               fmt(ratio, 3)});
    print_csv_row({std::to_string(parts), fmt_mops(mops[0]),
                   fmt_mops(mops[1]), fmt(ratio, 3)});
  }
  std::printf(
      "\nExpected shape (paper): the two systems achieve basically the same\n"
      "throughput at every partition count; throughput grows with partitions.\n");
  return 0;
}
