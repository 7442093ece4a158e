// End-to-end Cure* integration: the pessimistic baseline must also be
// causally consistent, converge, and exhibit the staleness the paper
// measures (Fig. 2b) that POCC avoids.
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
  cfg.system = SystemKind::kCure;
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
  cluster.run_for(5'000'000);
  ASSERT_NE(cluster.checker(), nullptr);
  for (const auto& v : cluster.checker()->violations()) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

TEST(IntegrationCure, GetPutWorkloadIsCausallyConsistent) {
  SimCluster cluster(base_config(21));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 4;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 40;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationCure, TransactionalWorkloadIsCausallyConsistent) {
  SimCluster cluster(base_config(22));
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kTxPut;
  wl.tx_partitions = 3;
  wl.think_time_us = 3'000;
  wl.keys_per_partition = 30;
  cluster.add_workload_clients(2, wl);
  run_and_verify(cluster, 400'000);
}

TEST(IntegrationCure, CureExhibitsStalenessUnderWriteChurn) {
  // With a deliberately slow stabilization the visible snapshot lags, so some
  // reads must return old/unmerged items (the effect POCC eliminates, §V-B).
  SimClusterConfig cfg = base_config(23);
  cfg.protocol.stabilization_interval_us = 50'000;
  SimCluster cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 1'000;
  wl.keys_per_partition = 5;  // tiny key space -> constant cross-DC updates
  wl.zipf_theta = 0.99;
  cluster.add_workload_clients(4, wl);
  cluster.run_for(100'000);
  cluster.begin_measurement();
  cluster.run_for(500'000);
  const ClusterMetrics m = cluster.end_measurement();
  EXPECT_GT(m.pct_unmerged, 0.0)
      << "Cure* should observe unmerged chains under churn";
  cluster.stop_clients();
  cluster.run_for(2'000'000);
  for (const auto& v : cluster.checker()->violations()) {
    ADD_FAILURE() << v;
  }
}

TEST(IntegrationCure, SlowerStabilizationMeansMoreStaleness) {
  // Ablation of §V-B's observation: longer stabilization period -> staler
  // reads. (POCC is immune to this trade-off by construction.)
  auto run_with_interval = [](Duration stab_us) {
    SimClusterConfig cfg = base_config(24);
    cfg.enable_checker = false;
    cfg.protocol.stabilization_interval_us = stab_us;
    SimCluster cluster(cfg);
    workload::WorkloadConfig wl;
    wl.pattern = workload::Pattern::kGetPut;
    wl.gets_per_put = 2;
    wl.think_time_us = 1'000;
    wl.keys_per_partition = 5;
    cluster.add_workload_clients(4, wl);
    cluster.run_for(100'000);
    cluster.begin_measurement();
    cluster.run_for(400'000);
    const ClusterMetrics m = cluster.end_measurement();
    cluster.stop_clients();
    return m.pct_unmerged;
  };
  const double fast = run_with_interval(5'000);
  const double slow = run_with_interval(100'000);
  EXPECT_GT(slow, fast);
}

}  // namespace
}  // namespace pocc::cluster
