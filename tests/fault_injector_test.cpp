// FaultInjector driving a live SimCluster: each fault kind takes effect at
// its scheduled time, clears on schedule, and the cluster converges with a
// clean causal history afterwards. Complements tests/cluster_fuzz_test.cpp
// (random plans) with hand-written single-fault scenarios whose effects are
// asserted directly.
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include "fault/fuzz_runner.hpp"

namespace pocc::fault {
namespace {

using cluster::SimCluster;
using cluster::SimClusterConfig;

SimClusterConfig small_cluster(SystemKind system, std::uint64_t seed = 7) {
  SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 2;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(200, 0);
  cfg.latency.inter_dc_base_us = {
      {0, 5'000, 8'000}, {5'000, 0, 6'000}, {8'000, 6'000, 0}};
  cfg.clock = ClockConfig::perfect();
  cfg.system = system;
  cfg.seed = seed;
  cfg.enable_checker = true;
  return cfg;
}

FaultEvent event_at(FaultKind kind, Timestamp at, Duration dur) {
  FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.duration = dur;
  return e;
}

FaultPlan plan_of(std::vector<FaultEvent> events, Duration horizon) {
  FaultPlan p;
  p.events = std::move(events);
  p.horizon_us = horizon;
  return p;
}

TEST(FaultInjectorTest, PartitionWindowOpensAndHeals) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kPartition, 50'000, 100'000);
  e.dc_a = 0;
  e.dc_b = 1;
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();

  cluster.run_for(60'000);
  EXPECT_TRUE(cluster.network().is_partitioned(0, 1));
  EXPECT_FALSE(cluster.network().is_partitioned(0, 2));
  EXPECT_EQ(inj.injected(), 1u);
  EXPECT_EQ(inj.cleared(), 0u);

  cluster.run_for(120'000);
  EXPECT_FALSE(cluster.network().is_partitioned(0, 1));
  EXPECT_TRUE(inj.all_cleared());
}

TEST(FaultInjectorTest, AsymmetricPartitionBlocksOneDirectionOnly) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kAsymPartition, 10'000, 200'000);
  e.dc_a = 0;
  e.dc_b = 1;
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();
  cluster.run_for(20'000);

  net::SimNetwork& net = cluster.network();
  EXPECT_TRUE(net.link_blocked(0, 1));
  EXPECT_FALSE(net.link_blocked(1, 0));

  // dc1's writes replicate into dc0 while dc0's writes stay buffered.
  auto& dc0_client = cluster.create_manual_client(0, 0);
  auto& dc1_client = cluster.create_manual_client(1, 0);
  ASSERT_TRUE(dc1_client.put("0:from-dc1", "v1").ok);
  ASSERT_TRUE(dc0_client.put("0:from-dc0", "v0").ok);
  cluster.run_for(50'000);
  // dc0 sees dc1's write (link dc1->dc0 is open).
  EXPECT_TRUE(dc0_client.get("0:from-dc1").found);
  // dc1 must not see dc0's write yet (dc0->dc1 is blocked). A fresh dc1
  // client has no dependency on it, so the read serves immediately.
  auto& dc1_probe = cluster.create_manual_client(1, 0);
  EXPECT_FALSE(dc1_probe.get("0:from-dc0").found);

  cluster.run_for(160'000);  // heal + flush
  EXPECT_FALSE(net.link_blocked(0, 1));
  EXPECT_TRUE(dc1_probe.get("0:from-dc0").found);
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(FaultInjectorTest, LinkDegradeStretchesDeliveryWithoutLoss) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kLinkDegrade, 10'000, 150'000);
  e.dc_a = 0;
  e.dc_b = 1;
  e.extra_delay_us = 30'000;
  e.delay_multiplier = 2.0;
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();
  cluster.run_for(20'000);

  // A write in dc0 reaches dc1 only after the degraded delay (base 5 ms
  // doubled + 30 ms extra = 40 ms), not after the healthy 5 ms.
  auto& dc0_client = cluster.create_manual_client(0, 0);
  auto& dc1_probe = cluster.create_manual_client(1, 0);
  ASSERT_TRUE(dc0_client.put("0:slow", "v").ok);
  cluster.run_for(20'000);
  EXPECT_FALSE(dc1_probe.get("0:slow").found);  // 20 ms < degraded delay
  cluster.run_for(40'000);
  EXPECT_TRUE(dc1_probe.get("0:slow").found);  // arrived, nothing lost
}

TEST(FaultInjectorTest, CrashDropsClientRequestsAndRestartRecovers) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kCrash, 30'000, 100'000);
  e.node = NodeId{0, 0};
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();

  // A write in another DC lands before the crash window.
  auto& dc1_client = cluster.create_manual_client(1, 0);
  ASSERT_TRUE(dc1_client.put("0:pre", "v").ok);
  cluster.run_for(40'000);
  EXPECT_TRUE(cluster.node_down(NodeId{0, 0}));

  // Requests to the dead node bounce: a manual GET never completes.
  auto& dc0_client = cluster.create_manual_client(0, 0);
  EXPECT_FALSE(dc0_client.get("0:pre", /*max_wait=*/20'000).ok);

  // Writes replicated toward the dead node ride the peers' durable logs.
  ASSERT_TRUE(dc1_client.put("0:during", "v").ok);

  cluster.run_for(120'000);  // restart at 130 ms
  EXPECT_FALSE(cluster.node_down(NodeId{0, 0}));
  EXPECT_GT(inj.versions_recovered(), 0u);
  // After the backlog replays, the rebooted node serves both versions.
  EXPECT_TRUE(dc0_client.get("0:pre").found);
  EXPECT_TRUE(dc0_client.get("0:during").found);
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST(FaultInjectorTest, HeartbeatLossStallsRemoteVersionVectors) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kHeartbeatLoss, 10'000, 150'000);
  e.node = NodeId{0, 0};
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();
  cluster.run_for(30'000);
  EXPECT_TRUE(cluster.network().heartbeats_suppressed(NodeId{0, 0}));

  // With dc0/p0 idle (no PUTs) and its heartbeats destroyed, the remote
  // replicas' VV[0] freezes while the suppression lasts.
  const Timestamp frozen =
      cluster.engine(NodeId{1, 0}).version_vector()[0];
  cluster.run_for(50'000);
  EXPECT_EQ(cluster.engine(NodeId{1, 0}).version_vector()[0], frozen);
  EXPECT_GT(cluster.network().stats().dropped_messages, 0u);

  cluster.run_for(100'000);  // suppression lifted at 160 ms
  EXPECT_FALSE(cluster.network().heartbeats_suppressed(NodeId{0, 0}));
  cluster.run_for(20'000);
  EXPECT_GT(cluster.engine(NodeId{1, 0}).version_vector()[0], frozen);
}

TEST(FaultInjectorTest, ClockSkewRampAppliesBoundedSlewAndUnwindsDrift) {
  SimCluster cluster(small_cluster(SystemKind::kPocc));
  FaultEvent e = event_at(FaultKind::kClockSkewRamp, 20'000, 80'000);
  e.node = NodeId{1, 1};
  e.skew_delta_us = 12'000;
  e.drift_delta_ppm = 40.0;
  FaultInjector inj(cluster, plan_of({e}, 300'000));
  inj.arm();

  const double drift_before = cluster.clock_at(NodeId{1, 1}).drift_ppm();
  const Timestamp offset_before = cluster.clock_at(NodeId{1, 1}).offset_us();
  cluster.run_for(50'000);  // mid-window: drift applied, slew partial
  EXPECT_DOUBLE_EQ(cluster.clock_at(NodeId{1, 1}).drift_ppm(),
                   drift_before + 40.0);
  cluster.run_for(60'000);  // window over
  EXPECT_DOUBLE_EQ(cluster.clock_at(NodeId{1, 1}).drift_ppm(), drift_before);
  EXPECT_EQ(cluster.clock_at(NodeId{1, 1}).offset_us(),
            offset_before + 12'000);
  EXPECT_TRUE(inj.all_cleared());
}

// HA-POCC end-to-end failover under an injector-driven partition: sessions
// blocked across the cut are closed, clients fall back to the pessimistic
// protocol, and promotion happens after heal (§III-B).
TEST(FaultInjectorTest, HaFailoverUnderInjectedPartition) {
  SimClusterConfig cfg = small_cluster(SystemKind::kHaPocc, 21);
  cfg.protocol.block_timeout_us = 40'000;
  cfg.protocol.ha_stabilization_interval_us = 20'000;
  SimCluster cluster(cfg);
  FaultEvent e = event_at(FaultKind::kPartition, 100'000, 200'000);
  e.dc_a = 0;
  e.dc_b = 1;
  FaultInjector inj(cluster, plan_of({e}, 400'000));
  inj.arm();

  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 2'000;
  wl.keys_per_partition = 10;
  wl.op_timeout_us = 150'000;
  cluster.add_workload_clients(2, wl);
  cluster.begin_measurement();
  cluster.run_for(400'000);
  const cluster::ClusterMetrics m = cluster.end_measurement();

  // The partition outlasted the block timeout: some sessions were closed
  // (server side) and fell back (client side).
  EXPECT_GT(m.session_fallbacks, 0u);
  cluster.stop_clients();
  cluster.run_for(3'000'000);
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

}  // namespace
}  // namespace pocc::fault
