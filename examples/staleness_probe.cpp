// Staleness probe: run the same production-like workload against POCC and
// Cure* side by side on the simulator and compare what clients actually get —
// data freshness, blocking incidence, and protocol overhead (the trade-off at
// the heart of the paper).
#include <cstdio>

#include "cluster/sim_cluster.hpp"

using namespace pocc;

namespace {

struct Probe {
  cluster::ClusterMetrics metrics;
  net::NetworkStats net;
};

Probe run(SystemKind system, std::uint32_t clients_per_partition) {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 8;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::aws_three_dc();
  cfg.system = system;
  cfg.seed = 99;

  cluster::SimCluster sim_cluster(cfg);
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 8;  // write-heavier than 32:1 to surface staleness
  wl.think_time_us = 10'000;
  wl.keys_per_partition = 100'000;
  sim_cluster.add_workload_clients(clients_per_partition, wl);

  sim_cluster.run_for(400'000);
  sim_cluster.begin_measurement();
  sim_cluster.run_for(1'500'000);
  Probe p;
  p.metrics = sim_cluster.end_measurement();
  p.net = p.metrics.network;
  sim_cluster.stop_clients();
  return p;
}

}  // namespace

int main() {
  std::printf("Staleness probe: identical workload on POCC vs Cure*\n");
  std::printf("(3 DCs x 8 partitions, 8:1 GET:PUT, zipf 0.99)\n\n");

  const std::uint32_t clients = 96;
  const Probe pocc = run(SystemKind::kPocc, clients);
  const Probe cure = run(SystemKind::kCure, clients);

  std::printf("%-34s %14s %14s\n", "metric", "POCC", "Cure*");
  auto row = [](const char* name, double a, double b, const char* unit) {
    std::printf("%-34s %12.4g%s %12.4g%s\n", name, a, unit, b, unit);
  };
  row("throughput (Mops/s)", pocc.metrics.throughput_ops_per_sec / 1e6,
      cure.metrics.throughput_ops_per_sec / 1e6, "  ");
  row("avg response time (ms)", pocc.metrics.avg_latency_us / 1e3,
      cure.metrics.avg_latency_us / 1e3, "  ");
  row("% old reads", pocc.metrics.pct_old, cure.metrics.pct_old, " %");
  row("% unmerged reads", pocc.metrics.pct_unmerged, cure.metrics.pct_unmerged,
      " %");
  row("blocking probability", pocc.metrics.blocking_probability,
      cure.metrics.blocking_probability, "  ");
  row("avg blocking time (ms)", pocc.metrics.blocked_us.mean() / 1e3,
      cure.metrics.blocked_us.mean() / 1e3, "  ");
  row("stabilization messages", static_cast<double>(pocc.net.stabilization_messages),
      static_cast<double>(cure.net.stabilization_messages), "  ");
  row("heartbeat messages", static_cast<double>(pocc.net.heartbeat_messages),
      static_cast<double>(cure.net.heartbeat_messages), "  ");
  row("total network bytes (MB)", static_cast<double>(pocc.net.bytes) / 1e6,
      static_cast<double>(cure.net.bytes) / 1e6, "  ");

  std::printf(
      "\nReading the table: POCC trades a (rare, bounded) chance of briefly\n"
      "stalling a request for returning the freshest received data with no\n"
      "stabilization traffic. Cure* never stalls on optimism but serves\n"
      "stale data under write churn and pays a continuous stabilization\n"
      "overhead (§III, §V-B of the paper).\n");
  return 0;
}
