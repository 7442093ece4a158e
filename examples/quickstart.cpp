// Quickstart: spin up a simulated 3-DC POCC deployment, perform causally
// related PUT/GET/RO-TX operations, and inspect the guarantees.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "cluster/sim_cluster.hpp"
#include "store/key_space.hpp"

using namespace pocc;

int main() {
  // 3 data centers x 4 partitions, geo latencies modeled on the paper's
  // Oregon/Virginia/Ireland deployment, NTP-grade clock skew.
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 4;
  cfg.latency = LatencyConfig::aws_three_dc();
  cfg.system = SystemKind::kPocc;
  cfg.seed = 7;

  cluster::SimCluster cluster(cfg);
  std::printf("Cluster up: %zu nodes, 3 DCs (POCC protocol)\n\n",
              cluster.node_count());

  // Alice writes from DC 0; Bob reads from DC 2 (Ireland).
  auto& alice = cluster.create_manual_client(/*dc=*/0);
  auto& bob = cluster.create_manual_client(/*dc=*/2);
  cluster.run_for(10'000);  // let clocks and heartbeats settle

  // --- simple PUT / GET ---
  const auto put = alice.put("user:alice:status", "researching");
  std::printf("alice PUT user:alice:status -> ut=%lld\n",
              static_cast<long long>(put.ut));
  const auto get = alice.get("user:alice:status");
  std::printf("alice GET user:alice:status -> \"%s\" (read-your-writes)\n\n",
              get.value.c_str());

  // --- causality across keys and data centers ---
  alice.put("photo:42", "sunset.jpg");
  alice.put("comment:42", "check out photo:42!");
  std::printf("alice wrote photo:42 then comment:42 (comment depends on photo)\n");

  // Give replication one inter-DC hop (~62 ms Oregon->Ireland).
  cluster.run_for(120'000);

  const auto comment = bob.get("comment:42");
  std::printf("bob (Ireland) GET comment:42 -> found=%d \"%s\"\n",
              comment.found, comment.value.c_str());
  const auto photo = bob.get("photo:42");
  std::printf("bob (Ireland) GET photo:42   -> found=%d \"%s\"\n",
              photo.found, photo.value.c_str());
  std::printf("causal consistency: seeing the comment implies seeing the "
              "photo%s\n\n",
              comment.found && !photo.found ? "  **VIOLATED**" : " -- OK");

  // --- optimistic freshness ---
  // POCC exposes a remote update the moment it is received, even before its
  // dependencies are confirmed stable (that is the "optimistic" in OCC).
  alice.put("ticker", "v1");
  cluster.run_for(80'000);  // just past the one-way Oregon->Ireland latency
  const auto fresh = bob.get("ticker");
  std::printf("bob reads ticker ~80 ms after alice's write: \"%s\" "
              "(blocked %lld us)\n\n",
              fresh.value.c_str(), static_cast<long long>(fresh.blocked_us));

  // --- causally consistent read-only transaction ---
  const auto tx = bob.ro_tx({"photo:42", "comment:42", "ticker"});
  std::printf("bob RO-TX over 3 keys returned %zu items:\n", tx.items.size());
  for (const auto& item : tx.items) {
    std::printf("  %-12s found=%d value=\"%s\"\n",
                store::key_name(item.key).c_str(),
                item.found, item.value.c_str());
  }
  std::printf("\nDone. See examples/social_network.cpp for a causal "
              "anomaly demo,\nexamples/staleness_probe.cpp for POCC-vs-Cure* "
              "freshness,\nexamples/partition_failover.cpp for HA-POCC, and\n"
              "examples/tcp_quickstart.cpp for the TCP deployment.\n");
  return 0;
}
