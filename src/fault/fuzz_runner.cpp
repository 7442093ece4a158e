#include "fault/fuzz_runner.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.hpp"

namespace pocc::fault {

namespace {

cluster::SimClusterConfig case_cluster_config(const FuzzCase& c) {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = c.num_dcs;
  cfg.topology.partitions_per_dc = c.partitions;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  // LAN-ish intra-DC, multi-millisecond WAN with per-pair asymmetry so
  // replication streams interleave differently per link.
  cfg.latency = LatencyConfig::uniform(250, 100);
  cfg.latency.inter_dc_base_us.assign(
      c.num_dcs, std::vector<Duration>(c.num_dcs, 0));
  for (DcId i = 0; i < c.num_dcs; ++i) {
    for (DcId j = 0; j < c.num_dcs; ++j) {
      if (i != j) {
        cfg.latency.inter_dc_base_us[i][j] =
            4'000 + 1'500 * static_cast<Duration>(i + j);
      }
    }
  }
  cfg.clock.offset_sigma_us = 1'000.0;
  cfg.clock.dc_offset_sigma_us = 1'500.0;
  cfg.clock.drift_ppm_sigma = 20.0;
  // Short enough that fuzz fault windows (up to limits.max_window_us) push
  // HA-POCC across its partition-suspicion timeout, exercising session
  // closure + pessimistic fallback + promotion.
  cfg.protocol.block_timeout_us = 60'000;
  cfg.protocol.ha_stabilization_interval_us = 30'000;
  cfg.system = c.system;
  cfg.seed = c.seed;
  cfg.enable_checker = true;
  return cfg;
}

workload::WorkloadConfig case_workload(const FuzzCase& c) {
  workload::WorkloadConfig wl;
  // Mixed campaign: even seeds run the Get-Put pattern, odd seeds the
  // transactional pattern, both over a small hot Zipf key set so write-write
  // and read-write races are dense.
  wl.pattern = (c.seed % 2 == 0) ? workload::Pattern::kGetPut
                                 : workload::Pattern::kTxPut;
  wl.gets_per_put = 2;
  wl.tx_partitions = std::min<std::uint32_t>(c.partitions, 3);
  wl.think_time_us = 2'000;
  wl.keys_per_partition = 20;
  wl.zipf_theta = 0.99;
  // Longer than the longest fault window: a retry means the request really
  // died (crashed server), not that it is merely parked behind a partition.
  wl.op_timeout_us = 180'000;
  return wl;
}

}  // namespace

FaultPlan plan_for_case(const FuzzCase& c) {
  TopologyConfig topo;
  topo.num_dcs = c.num_dcs;
  topo.partitions_per_dc = c.partitions;
  return FaultPlan::random(c.seed, topo, c.run_us, c.limits);
}

FuzzOutcome run_fuzz_case(const FuzzCase& c) {
  FuzzOutcome out;

  cluster::SimCluster cluster(case_cluster_config(c));
  cluster.add_workload_clients(c.clients_per_partition, case_workload(c));

  FaultInjector injector(cluster, plan_for_case(c));
  out.plan_hash = injector.plan().hash();
  out.plan_text = injector.plan().to_string();
  out.faults_injected = injector.plan().events.size();
  injector.arm();

  cluster.begin_measurement();
  cluster.run_for(c.run_us);
  const cluster::ClusterMetrics m = cluster.end_measurement();
  cluster.stop_clients();
  cluster.run_for(c.drain_us);

  if (!injector.all_cleared()) {
    out.failures.push_back("injector: not every fault window was cleared");
  }
  const checker::HistoryChecker* chk = cluster.checker();
  for (const std::string& v : chk->violations()) {
    out.failures.push_back("checker: " + v);
  }
  for (const std::string& key : cluster.divergent_keys()) {
    out.failures.push_back("convergence: key '" + key +
                           "' diverges across DCs after all faults healed");
  }
  if (const std::size_t parked = cluster.total_parked_requests();
      parked != 0) {
    out.failures.push_back("liveness: " + std::to_string(parked) +
                           " request(s) still parked after drain");
  }
  if (m.completed_ops == 0) {
    out.failures.push_back("vacuous: no operation completed under faults");
  }
  if (chk->checks_performed() == 0) {
    out.failures.push_back("vacuous: checker performed zero checks");
  }

  out.completed_ops = m.completed_ops;
  out.session_fallbacks = m.session_fallbacks;
  out.checks_performed = chk->checks_performed();
  out.versions_registered = chk->versions_registered();
  out.versions_recovered = injector.versions_recovered();
  out.messages_dropped = cluster.network().stats().dropped_messages;
  out.digest = cluster.state_digest();
  out.ok = out.failures.empty();
  return out;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    s += digits[(v >> shift) & 0xf];
  }
  return s;
}

std::string repro_line(const FuzzCase& c, const FuzzOutcome& o) {
  // Durations are part of the case (the plan horizon derives from run_us),
  // so the repro carries them explicitly — a campaign run with non-default
  // lengths must replay with the same ones.
  return std::string("fuzz_campaign --engine ") + system_flag(c.system) +
         " --seed " + std::to_string(c.seed) + " --duration-us " +
         std::to_string(c.run_us) + " --drain-us " +
         std::to_string(c.drain_us) + " --plan-hash " + hex64(o.plan_hash);
}

}  // namespace pocc::fault
