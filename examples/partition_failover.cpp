// HA-POCC failover walk-through (§III-B of the paper).
//
// Builds the exact blocking scenario the paper describes — a client whose
// read dependency cannot arrive because of a network partition — and shows
// the recovery mechanism step by step: the server detects the partition via
// the blocked-request timeout, closes the session, the client re-initializes
// in pessimistic (Cure-style) mode and keeps operating, and after the heal
// the session is promoted back to the optimistic protocol.
#include <cstdio>

#include "cluster/sim_cluster.hpp"

using namespace pocc;

int main() {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 2;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(300, 0);
  cfg.latency.inter_dc_base_us = {
      {0, 5'000, 5'000}, {5'000, 0, 5'000}, {5'000, 5'000, 0}};
  cfg.clock = ClockConfig::perfect();
  cfg.system = SystemKind::kHaPocc;
  cfg.protocol.block_timeout_us = 100'000;  // partition suspected after 100 ms
  cfg.seed = 5;

  cluster::SimCluster cluster(cfg);
  auto& writer_dc0 = cluster.create_manual_client(0);
  auto& relay_dc2 = cluster.create_manual_client(2);
  auto& reader_dc1 = cluster.create_manual_client(1);
  cluster.run_for(10'000);

  std::printf("== phase 1: healthy operation ==\n");
  writer_dc0.put("0:profile", "v1");
  cluster.run_for(50'000);
  auto r = reader_dc1.get("0:profile");
  std::printf("reader(DC1) GET 0:profile -> \"%s\" (optimistic session)\n\n",
              r.value.c_str());

  std::printf("== phase 2: DC0-DC1 partition; dependency chain via DC2 ==\n");
  cluster.partition_dcs(0, 1);
  writer_dc0.put("0:x", "x2-during-partition");
  cluster.run_for(50'000);  // x2 reaches DC2 (but not DC1)
  relay_dc2.get("0:x");
  relay_dc2.put("1:y", "y-depends-on-x2");
  cluster.run_for(50'000);  // y reaches DC1
  auto y = reader_dc1.get("1:y");
  std::printf("reader(DC1) reads y (\"%s\") -> now depends on x2, which DC1\n"
              "cannot receive while the partition is up\n",
              y.value.c_str());

  std::printf("\n== phase 3: blocked read -> partition detected ==\n");
  auto blocked = reader_dc1.get("0:anything", /*max_wait=*/400'000);
  std::printf("GET on partition-0 data: ok=%d (server closed the session "
              "after the %lld ms block timeout)\n",
              blocked.ok,
              static_cast<long long>(cfg.protocol.block_timeout_us / 1000));
  std::printf("session mode now: %s\n",
              reader_dc1.engine().pessimistic() ? "PESSIMISTIC" : "optimistic");

  std::printf("\n== phase 4: pessimistic operation during the partition ==\n");
  auto pess_read = reader_dc1.get("0:anything", 500'000);
  auto pess_write = reader_dc1.put("1:during-partition", "still-working",
                                   500'000);
  std::printf("pessimistic GET ok=%d, PUT ok=%d — the session stays "
              "available (Cure-style visibility)\n",
              pess_read.ok, pess_write.ok);

  std::printf("\n== phase 5: heal and promotion ==\n");
  cluster.heal_dcs(0, 1);
  cluster.run_for(300'000);
  auto after = reader_dc1.get("0:x", 500'000);
  std::printf("after heal: GET 0:x -> \"%s\"\n", after.value.c_str());
  std::printf("session mode now: %s (promoted back, §III-B)\n",
              reader_dc1.engine().pessimistic() ? "PESSIMISTIC" : "optimistic");

  std::printf("\n== phase 6: permanent DC loss & lost-update discard ==\n");
  // Rebuild the dependency chain: DC0 writes x3 while cut off from DC1 only;
  // DC2 relays a dependent write to DC1; then DC0 fails for good.
  cluster.partition_dcs(0, 1);
  writer_dc0.put("0:x", "x3-before-dc0-dies");
  cluster.run_for(50'000);
  relay_dc2.get("0:x");
  relay_dc2.put("1:z", "z-depends-on-x3");
  cluster.run_for(50'000);
  cluster.isolate_dc(0);  // DC0 is gone for good
  const auto discarded = cluster.declare_dc_lost(0);
  std::printf("DC0 declared lost: %llu version(s) depending on unreceived "
              "DC0 updates were discarded\n(z at DC1 depended on x3, which "
              "only DC2 ever received — the \"lost update\"\ncost of optimism "
              "after an unrecoverable failure, §III-B)\n",
              static_cast<unsigned long long>(discarded));
  return 0;
}
