// Whole-cluster integration on the simulator: session guarantees, POCC's
// immediate remote visibility vs Cure*'s stabilization delay, and causal
// consistency across DCs under the online checker.
#include "cluster/sim_cluster.hpp"

#include <gtest/gtest.h>

#include "store/key_space.hpp"

#include "pocc/api.hpp"  // umbrella header must stay self-contained

namespace pocc::cluster {
namespace {

SimClusterConfig small_config(SystemKind system, std::uint64_t seed = 1) {
  SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 2;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(500, 50);
  cfg.latency.inter_dc_base_us = {
      {0, 10'000, 15'000}, {10'000, 0, 12'000}, {15'000, 12'000, 0}};
  cfg.latency.default_inter_dc_us = 12'000;
  cfg.clock.offset_sigma_us = 200.0;
  cfg.system = system;
  cfg.seed = seed;
  cfg.enable_checker = true;
  return cfg;
}

TEST(SimCluster, ReadYourOwnWrite) {
  SimCluster cluster(small_config(SystemKind::kPocc));
  auto& client = cluster.create_manual_client(0);
  cluster.run_for(10'000);  // let clocks/heartbeats settle

  const auto put = client.put("0:hello", "world");
  ASSERT_TRUE(put.ok);
  EXPECT_GT(put.ut, 0);

  const auto get = client.get("0:hello");
  ASSERT_TRUE(get.ok);
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "world");
  EXPECT_EQ(get.ut, put.ut);
  ASSERT_NE(cluster.checker(), nullptr);
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, UnwrittenKeyReadsAsNotFound) {
  SimCluster cluster(small_config(SystemKind::kPocc));
  auto& client = cluster.create_manual_client(1);
  cluster.run_for(10'000);
  const auto get = client.get("1:nothing");
  ASSERT_TRUE(get.ok);
  EXPECT_FALSE(get.found);
}

TEST(SimCluster, RemoteDcEventuallySeesWrite) {
  SimCluster cluster(small_config(SystemKind::kPocc));
  auto& writer = cluster.create_manual_client(0);
  auto& reader = cluster.create_manual_client(2);
  cluster.run_for(10'000);

  ASSERT_TRUE(writer.put("1:geo", "replicated").ok);
  // POCC exposes the remote update as soon as it arrives (one inter-DC hop).
  cluster.run_for(100'000);
  const auto get = reader.get("1:geo");
  ASSERT_TRUE(get.ok);
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "replicated");
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, PoccExposesFreshRemoteVersionImmediately) {
  // The key OCC property (§III-A): a remote version is visible the moment it
  // is received, before it is stable.
  SimClusterConfig cfg = small_config(SystemKind::kPocc);
  cfg.protocol.stabilization_interval_us = 1'000'000;  // irrelevant for POCC
  SimCluster cluster(cfg);
  auto& writer = cluster.create_manual_client(0);
  auto& reader = cluster.create_manual_client(1);
  cluster.run_for(10'000);
  ASSERT_TRUE(writer.put("0:fresh", "hot").ok);
  // Wait just past the one-way DC0->DC1 latency (10 ms + jitter).
  cluster.run_for(30'000);
  const auto get = reader.get("0:fresh");
  ASSERT_TRUE(get.ok);
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "hot");
}

TEST(SimCluster, CureHidesRemoteVersionUntilStabilization) {
  SimClusterConfig cfg = small_config(SystemKind::kCure);
  cfg.protocol.stabilization_interval_us = 400'000;  // slow GSS on purpose
  SimCluster cluster(cfg);
  auto& writer = cluster.create_manual_client(0);
  auto& reader = cluster.create_manual_client(1);
  cluster.run_for(10'000);
  ASSERT_TRUE(writer.put("0:fresh", "hot").ok);
  cluster.run_for(30'000);  // received in DC1 but not stable yet
  const auto early = reader.get("0:fresh");
  ASSERT_TRUE(early.ok);
  EXPECT_FALSE(early.found) << "Cure* must hide the unstable remote version";
  // After a stabilization round the version becomes visible.
  cluster.run_for(900'000);
  const auto late = reader.get("0:fresh");
  ASSERT_TRUE(late.ok);
  EXPECT_TRUE(late.found);
  EXPECT_EQ(late.value, "hot");
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, CausalDependencyNeverViolatedAcrossDcs) {
  SimCluster cluster(small_config(SystemKind::kPocc));
  auto& alice = cluster.create_manual_client(0);
  auto& bob = cluster.create_manual_client(1);
  cluster.run_for(10'000);

  ASSERT_TRUE(alice.put("0:photo", "img.jpg").ok);
  const auto photo = alice.get("0:photo");
  ASSERT_TRUE(photo.ok);
  ASSERT_TRUE(alice.put("1:comment", "nice pic").ok);

  cluster.run_for(200'000);
  const auto comment = bob.get("1:comment");
  ASSERT_TRUE(comment.ok);
  if (comment.found) {
    // Having seen the comment, Bob must see the photo (causality).
    const auto photo_bob = bob.get("0:photo");
    ASSERT_TRUE(photo_bob.ok);
    EXPECT_TRUE(photo_bob.found);
  }
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, RoTxReturnsAllItems) {
  SimCluster cluster(small_config(SystemKind::kPocc));
  auto& client = cluster.create_manual_client(0);
  cluster.run_for(10'000);
  ASSERT_TRUE(client.put("0:a", "1").ok);
  ASSERT_TRUE(client.put("1:b", "2").ok);
  const auto tx = client.ro_tx({"0:a", "1:b", "0:c"});
  ASSERT_TRUE(tx.ok);
  EXPECT_EQ(tx.items.size(), 3u);
  int found = 0;
  for (const auto& item : tx.items) {
    if (item.found) ++found;
  }
  EXPECT_EQ(found, 2);
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, WorkloadRunProducesThroughputAndConverges) {
  SimClusterConfig cfg = small_config(SystemKind::kPocc);
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 5'000;
  wl.keys_per_partition = 50;
  cluster.add_workload_clients(2, wl);

  cluster.run_for(100'000);  // warmup
  cluster.begin_measurement();
  cluster.run_for(300'000);
  const ClusterMetrics m = cluster.end_measurement();
  EXPECT_GT(m.completed_ops, 0u);
  EXPECT_GT(m.throughput_ops_per_sec, 0.0);
  EXPECT_GT(m.get_latency_us.count(), m.put_latency_us.count());
  EXPECT_LE(m.blocking_probability, 1.0);

  cluster.stop_clients();
  cluster.run_for(3'000'000);  // drain replication
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

TEST(SimCluster, MetricsWindowIsolatesCounts) {
  SimClusterConfig cfg = small_config(SystemKind::kPocc);
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.think_time_us = 5'000;
  wl.keys_per_partition = 50;
  cluster.add_workload_clients(1, wl);
  cluster.run_for(50'000);
  cluster.begin_measurement();
  const ClusterMetrics empty = cluster.end_measurement();
  EXPECT_EQ(empty.completed_ops, 0u);
  cluster.begin_measurement();
  cluster.run_for(200'000);
  const ClusterMetrics m = cluster.end_measurement();
  EXPECT_GT(m.completed_ops, 0u);
  EXPECT_EQ(m.window_us, 200'000);
  cluster.stop_clients();
}

TEST(SimCluster, RestartInsideAWindowKeepsCountsAndTakesOverGauges) {
  SimClusterConfig cfg = small_config(SystemKind::kPocc);
  cfg.clock = ClockConfig::perfect();  // GC floors stay below virtual time
  SimCluster cluster(cfg);
  auto& client = cluster.create_manual_client(0, /*home=*/1);
  cluster.run_for(200'000);  // several GC rounds: the floors are set
  const NodeId node{0, 1};
  const stats::Labels part = {{"part", "1"}};
  ASSERT_GT(cluster.registry(0).snapshot().value("pocc_engine_gc_floor_us",
                                                 part),
            10'000.0);

  cluster.begin_measurement();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.put("1:k", "v" + std::to_string(i)).ok);
  }
  cluster.crash_node(node);
  cluster.run_for(20'000);
  cluster.restart_node(node);
  ASSERT_TRUE(client.get("1:k").ok);
  cluster.run_for(200'000);
  const ClusterMetrics m = cluster.end_measurement();
  // The ops served before the crash count: the dead incarnation's counter
  // shards stay in the registry.
  EXPECT_EQ(m.blocking_ops, 4u);

  // The restarted engine took its partition's gauge over instead of adding
  // a second one next to its predecessor's.
  const double floor =
      cluster.registry(0).snapshot().value("pocc_engine_gc_floor_us", part);
  EXPECT_GT(floor, 0.0);
  EXPECT_LE(floor, static_cast<double>(cluster.simulator().now() + 1'000));
}

TEST(SimCluster, SystemNames) {
  EXPECT_STREQ(system_name(SystemKind::kPocc), "POCC");
  EXPECT_STREQ(system_name(SystemKind::kCure), "Cure*");
  EXPECT_STREQ(system_name(SystemKind::kHaPocc), "HA-POCC");
  EXPECT_STREQ(system_name(SystemKind::kScalarPocc), "Scalar-OCC");
}

TEST(SimCluster, RoTxAcrossEveryPartitionIsSnapshotConsistent) {
  SimCluster cluster(small_config(SystemKind::kPocc, 5));
  auto& writer = cluster.create_manual_client(0);
  auto& reader = cluster.create_manual_client(1);
  cluster.run_for(10'000);
  // A causal chain spanning both partitions, written twice.
  for (int round = 1; round <= 2; ++round) {
    ASSERT_TRUE(writer.put("0:cfg", "cfg-v" + std::to_string(round)).ok);
    ASSERT_TRUE(writer.put("1:data", "data-v" + std::to_string(round)).ok);
  }
  cluster.run_for(150'000);
  const auto tx = reader.ro_tx({"0:cfg", "1:data"});
  ASSERT_TRUE(tx.ok);
  ASSERT_EQ(tx.items.size(), 2u);
  // data-v2 causally follows cfg-v2: a snapshot containing data-v2 must
  // contain cfg-v2 (checker enforces this too; assert the visible values).
  std::string cfg_val;
  std::string data_val;
  for (const auto& item : tx.items) {
    if (item.key == store::intern_key("0:cfg")) cfg_val = item.value;
    if (item.key == store::intern_key("1:data")) data_val = item.value;
  }
  if (data_val == "data-v2") {
    EXPECT_EQ(cfg_val, "cfg-v2");
  }
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(SimCluster, ScalarSystemRunsWorkloadsConsistently) {
  SimClusterConfig cfg = small_config(SystemKind::kScalarPocc, 6);
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 4'000;
  wl.keys_per_partition = 30;
  cluster.add_workload_clients(2, wl);
  cluster.run_for(300'000);
  cluster.stop_clients();
  cluster.run_for(2'000'000);
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_TRUE(cluster.divergent_keys().empty());
}

TEST(SimCluster, HotKeyContentionConvergesToLwwWinner) {
  // Every DC hammers the same key; after drain all replicas must agree on
  // the single LWW winner (§II-B convergent conflict handling).
  SimCluster cluster(small_config(SystemKind::kPocc, 7));
  std::vector<SimClient*> writers;
  for (DcId dc = 0; dc < 3; ++dc) {
    writers.push_back(&cluster.create_manual_client(dc));
  }
  cluster.run_for(10'000);
  for (int round = 0; round < 5; ++round) {
    for (auto* w : writers) {
      ASSERT_TRUE(
          w->put("0:hot", "dc" + std::to_string(w->dc()) + "-r" +
                              std::to_string(round))
              .ok);
    }
  }
  cluster.run_for(2'000'000);
  EXPECT_TRUE(cluster.divergent_keys().empty());
  // The winner is identical at every DC and carries the highest (ut, sr).
  const auto* head0 =
      cluster.engine(NodeId{0, 0}).partition_store().find(store::intern_key("0:hot"))->freshest();
  for (DcId dc = 1; dc < 3; ++dc) {
    const auto* head =
        cluster.engine(NodeId{dc, 0}).partition_store().find(store::intern_key("0:hot"))
            ->freshest();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->ut, head0->ut);
    EXPECT_EQ(head->sr, head0->sr);
    EXPECT_EQ(head->value, head0->value);
  }
}

}  // namespace
}  // namespace pocc::cluster
