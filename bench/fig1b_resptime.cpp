// Figure 1b — "Avg. resp. time on 32 partitions with a 32:1 GET:PUT
// workload" — average operation response time as a function of achieved
// throughput, swept by increasing the number of closed-loop clients.
//
// Paper shape: POCC achieves slightly lower response time than Cure* before
// saturation (it never traverses version chains nor runs stabilization);
// under very high load POCC is slightly worse because operations block.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 1b",
               "avg response time vs throughput (32:1 GET:PUT)", scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.gets_per_put = 32;

  print_row({"clients/part", "system", "Mops/s", "avg resp (ms)",
             "p99 (ms)", "cpu util"});
  print_csv_header("fig1b", {"clients_per_partition", "system", "mops",
                             "avg_resp_ms", "p99_resp_ms", "cpu_util"});
  for (auto system : {SystemKind::kCure, SystemKind::kPocc}) {
    for (std::uint32_t clients : scale.client_sweep()) {
      const auto cfg =
          paper_config(system, scale.partitions(), /*seed=*/2000 + clients);
      const auto m = run_point(cfg, wl, clients, scale.warmup_us(),
                               scale.measure_us());
      const double avg_ms = m.avg_latency_us / 1e3;
      stats::Histogram all;
      all.merge(m.get_latency_us);
      all.merge(m.put_latency_us);
      const double p99_ms =
          static_cast<double>(all.percentile(99)) / 1e3;
      const char* name = system_name(system);
      print_row({std::to_string(clients), name,
                 fmt_mops(m.throughput_ops_per_sec), fmt(avg_ms, 4),
                 fmt(p99_ms, 4), fmt(m.avg_cpu_utilization, 3)});
      print_csv_row({std::to_string(clients), name,
                     fmt_mops(m.throughput_ops_per_sec), fmt(avg_ms, 4),
                     fmt(p99_ms, 4), fmt(m.avg_cpu_utilization, 3)});
    }
  }
  std::printf(
      "\nExpected shape (paper): POCC's response time sits slightly below\n"
      "Cure*'s until the saturation knee, then slightly above it.\n");
  return 0;
}
