// Figure 3b — "Throughput and avg. resp. time with different # clients per
// partition" (RO-TX over half the partitions + random PUT, §V-C).
//
// Paper shape: both systems reach a similar maximum throughput, but POCC's
// throughput *drops* past its peak (blocking-driven RO-TX latency surge)
// while Cure*'s plateaus; Cure*'s RO-TX response time rises steadily.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 3b",
               "throughput & RO-TX response time vs clients/partition",
               scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.pattern = workload::Pattern::kTxPut;
  wl.tx_partitions = scale.partitions() / 2;

  print_row({"clients/part", "system", "Mops/s", "tx resp (ms)",
             "p99 tx (ms)"});
  print_csv_header("fig3b", {"clients_per_partition", "system", "mops",
                             "tx_resp_ms", "p99_tx_ms"});
  for (auto system : {SystemKind::kCure, SystemKind::kPocc}) {
    for (std::uint32_t clients : scale.client_sweep()) {
      const auto cfg =
          paper_config(system, scale.partitions(), /*seed=*/6000 + clients);
      const auto m = run_point(cfg, wl, clients, scale.warmup_us(),
                               scale.measure_us());
      const double tx_ms = m.client_ops.tx_latency_us.mean() / 1e3;
      const double p99_ms =
          static_cast<double>(m.client_ops.tx_latency_us.percentile(99)) /
          1e3;
      const char* name = system_name(system);
      print_row({std::to_string(clients), name,
                 fmt_mops(m.throughput_ops_per_sec), fmt(tx_ms, 4),
                 fmt(p99_ms, 4)});
      print_csv_row({std::to_string(clients), name,
                     fmt_mops(m.throughput_ops_per_sec), fmt(tx_ms, 4),
                     fmt(p99_ms, 4)});
    }
  }
  std::printf(
      "\nExpected shape (paper): similar peak throughput; past the peak POCC\n"
      "throughput drops (RO-TX latency surges) while Cure* plateaus.\n");
  return 0;
}
