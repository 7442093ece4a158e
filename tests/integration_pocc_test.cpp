// End-to-end POCC integration: mixed workloads on a simulated geo-replicated
// cluster, verified by the causal-consistency checker, with convergence and
// drain checks.
#include <gtest/gtest.h>

#include "cluster/sim_cluster.hpp"

namespace pocc::cluster {
namespace {

SimClusterConfig base_config(std::uint64_t seed) {
  SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 4;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(300, 50);
  cfg.latency.inter_dc_base_us = {
      {0, 8'000, 14'000}, {8'000, 0, 9'000}, {14'000, 9'000, 0}};
  cfg.clock.offset_sigma_us = 500.0;
  cfg.clock.drift_ppm_sigma = 20.0;
  cfg.system = SystemKind::kPocc;
  cfg.seed = seed;
  cfg.enable_checker = true;
  return cfg;
}

void run_and_verify(SimCluster& cluster, Duration run_us) {
  cluster.run_for(50'000);
  cluster.begin_measurement();
  cluster.run_for(run_us);
  const ClusterMetrics m = cluster.end_measurement();
  EXPECT_GT(m.completed_ops, 0u);

  cluster.stop_clients();
  cluster.run_for(5'000'000);  // drain: all replication settles

  ASSERT_NE(cluster.checker(), nullptr);
  for (const auto& v : cluster.checker()->violations()) {
    ADD_FAILURE() << v;
  }
  const auto divergent = cluster.divergent_keys();
  EXPECT_TRUE(divergent.empty())
      << divergent.size() << " divergent keys, first: " << divergent.front();
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

TEST(IntegrationPocc, GetPutWorkloadIsCausallyConsistent) {
  SimCluster cluster(base_config(11));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 4;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 40;  // small key space => heavy conflicts
  wl.zipf_theta = 0.99;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationPocc, WriteHeavyWorkloadIsCausallyConsistent) {
  SimCluster cluster(base_config(12));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 1;  // 1:1 GET:PUT — the paper's most write-intensive mix
  wl.think_time_us = 2'000;
  wl.keys_per_partition = 20;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationPocc, TransactionalWorkloadIsCausallyConsistent) {
  SimCluster cluster(base_config(13));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kTxPut;
  wl.tx_partitions = 3;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 30;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationPocc, PoccGetsAreNeverStale) {
  // §V-B: POCC always returns the freshest received version on GETs.
  SimCluster cluster(base_config(14));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 4;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 40;
  cluster.add_workload_clients(2, wl);
  cluster.run_for(50'000);
  cluster.begin_measurement();
  cluster.run_for(300'000);
  const ClusterMetrics m = cluster.end_measurement();
  EXPECT_EQ(m.pct_old, 0.0);
  EXPECT_EQ(m.pct_unmerged, 0.0);
  cluster.stop_clients();
  cluster.run_for(1'000'000);
}

TEST(IntegrationPocc, ClockSkewDoesNotBreakConsistency) {
  // "The correctness of our protocol does not depend on the synchronization
  // precision" (§IV) — crank the skew way up.
  SimClusterConfig cfg = base_config(15);
  cfg.clock.offset_sigma_us = 50'000.0;  // 50 ms offsets
  cfg.clock.drift_ppm_sigma = 200.0;
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 30;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationPocc, GarbageCollectionPreservesConsistency) {
  SimClusterConfig cfg = base_config(16);
  cfg.protocol.gc_interval_us = 20'000;  // aggressive GC
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 2'000;
  wl.keys_per_partition = 10;  // few keys -> long chains -> GC pressure
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 500'000);
  // GC must actually have removed something under this churn.
  std::uint64_t gc_removed = 0;
  for (DcId dc = 0; dc < 3; ++dc) {
    for (PartitionId p = 0; p < 4; ++p) {
      gc_removed +=
          cluster.engine(NodeId{dc, p}).partition_store().stats().gc_removed;
    }
  }
  EXPECT_GT(gc_removed, 0u);
}

}  // namespace
}  // namespace pocc::cluster
