// Ablation — client think time (§V-A).
//
// The paper sets a 25 ms think time and observes that it "lowers the chances
// that a request blocks when using OCC, because it gives time to servers to
// receive potentially missing client dependencies". This sweep makes that
// relationship explicit: the shorter the think time, the more likely a client
// outruns replication and stalls.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Ablation: think time",
               "POCC blocking vs client think time", scale);

  const Duration sweep[] = {1'000, 2'000, 5'000, 10'000, 25'000, 100'000};
  print_row({"think (ms)", "Mops/s", "block prob", "avg block (ms)"});
  print_csv_header("abl_think_time",
                   {"think_ms", "mops", "block_prob", "avg_block_ms"});
  for (Duration think : sweep) {
    workload::WorkloadConfig wl = paper_workload();
    wl.gets_per_put = 8;
    wl.think_time_us = think;
    auto cfg = paper_config(SystemKind::kPocc, scale.partitions(),
                            /*seed=*/9300 + think);
    const auto m = run_point(cfg, wl, 32, scale.warmup_us(),
                             scale.measure_us());
    print_row({fmt(static_cast<double>(think) / 1e3, 3),
               fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking.blocking_probability(), 3),
               fmt(m.blocking.avg_blocking_time_us() / 1e3, 4)});
    print_csv_row({fmt(static_cast<double>(think) / 1e3, 3),
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking.blocking_probability(), 3),
                   fmt(m.blocking.avg_blocking_time_us() / 1e3, 4)});
  }
  std::printf(
      "\nExpected: blocking probability decreases as think time grows; at\n"
      "25 ms (the paper's setting) blocking is rare.\n");
  return 0;
}
