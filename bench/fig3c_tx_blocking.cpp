// Figure 3c — "Blocking behavior in POCC with different # clients per
// partition" (RO-TX(half)+PUT workload, §V-C).
//
// Paper shape: highly non-linear. Blocking probability peaks around the
// throughput peak; blocking time first *decreases* with load (more updates =
// faster unblocking) and then grows sharply under overload, when update and
// heartbeat processing itself is delayed by CPU contention.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 3c",
               "POCC blocking probability/time vs clients/partition", scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.pattern = workload::Pattern::kTxPut;
  wl.tx_partitions = scale.partitions() / 2;

  print_row({"clients/part", "Mops/s", "stall prob", "block prob(>1ms)",
             "avg block (ms)", "p99 block (ms)"});
  print_csv_header("fig3c", {"clients_per_partition", "mops", "stall_prob",
                             "macro_block_prob", "avg_block_ms",
                             "p99_block_ms"});
  for (std::uint32_t clients : scale.client_sweep()) {
    const auto cfg = paper_config(SystemKind::kPocc,
                                  scale.partitions(), /*seed=*/7000 + clients);
    const auto m =
        run_point(cfg, wl, clients, scale.warmup_us(), scale.measure_us());
    print_row({std::to_string(clients), fmt_mops(m.throughput_ops_per_sec),
               fmt(m.blocking_probability, 3),
               fmt(m.macro_blocking_probability, 3),
               fmt(m.blocked_us.mean() / 1e3, 4),
               fmt(static_cast<double>(
                       m.blocked_us.percentile(99)) /
                       1e3,
                   4)});
    print_csv_row({std::to_string(clients),
                   fmt_mops(m.throughput_ops_per_sec),
                   fmt(m.blocking_probability, 3),
                   fmt(m.macro_blocking_probability, 3),
                   fmt(m.blocked_us.mean() / 1e3, 4),
                   fmt(static_cast<double>(
                           m.blocked_us.percentile(99)) /
                           1e3,
                       4)});
  }
  std::printf(
      "\nExpected shape (paper): blocking probability peaks near the\n"
      "throughput peak; blocking time dips then grows under overload.\n"
      "\"stall prob\" counts any parked request (including the sub-ms VV-skew\n"
      "stalls inherent to POCC's fresh snapshots); the >1ms series is the\n"
      "granularity the paper's testbed measurement would register.\n");
  return 0;
}
