// Figure 3d — "Data staleness in POCC and Cure* with different # clients per
// partition" (RO-TX(half)+PUT workload, §V-C).
//
// Paper shape: the fraction of old items returned by POCC transactions is
// about two orders of magnitude lower than Cure*'s, because POCC's snapshot
// boundaries track what the DC has *received* (VV) while Cure*'s track what
// is *stable* (GSS). In POCC's transactional reads "old" and "unmerged"
// coincide (§V-C), so only Cure* reports a separate unmerged series.
#include "bench_util.hpp"

using namespace pocc;
using namespace pocc::bench;

int main() {
  const Scale scale = scale_from_env();
  print_banner("Figure 3d", "%old (POCC vs Cure*) and %unmerged (Cure*)",
               scale);

  workload::WorkloadConfig wl = paper_workload();
  wl.pattern = workload::Pattern::kTxPut;
  wl.tx_partitions = scale.partitions() / 2;

  print_row({"clients/part", "POCC %old", "Cure* %old", "Cure* %unm",
             "Cure*/POCC"});
  print_csv_header("fig3d", {"clients_per_partition", "pocc_pct_old",
                             "cure_pct_old", "cure_pct_unmerged", "ratio"});
  for (std::uint32_t clients : scale.client_sweep()) {
    double pocc_old = 0.0;
    double cure_old = 0.0;
    double cure_unmerged = 0.0;
    // Average two seeds per point: POCC's %old sits so low that single runs
    // are dominated by individual backlog episodes.
    constexpr std::uint64_t kSeeds = 2;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const auto cfg = paper_config(SystemKind::kPocc,
                                    scale.partitions(),
                                    /*seed=*/8000 + clients + seed * 91);
      const auto m =
          run_point(cfg, wl, clients, scale.warmup_us(), scale.measure_us());
      pocc_old += m.pct_old / kSeeds;
    }
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const auto cfg = paper_config(SystemKind::kCure,
                                    scale.partitions(),
                                    /*seed=*/8100 + clients + seed * 91);
      const auto m =
          run_point(cfg, wl, clients, scale.warmup_us(), scale.measure_us());
      cure_old += m.pct_old / kSeeds;
      cure_unmerged += m.pct_unmerged / kSeeds;
    }
    const double ratio = pocc_old > 0 ? cure_old / pocc_old : 0.0;
    print_row({std::to_string(clients), fmt(pocc_old, 3), fmt(cure_old, 3),
               fmt(cure_unmerged, 3), fmt(ratio, 3)});
    print_csv_row({std::to_string(clients), fmt(pocc_old, 3),
                   fmt(cure_old, 3), fmt(cure_unmerged, 3), fmt(ratio, 3)});
  }
  std::printf(
      "\nExpected shape (paper): POCC %%old roughly two orders of magnitude\n"
      "below Cure*'s.\n");
  return 0;
}
