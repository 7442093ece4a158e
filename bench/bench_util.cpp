// Shared benchmark harness plumbing: POCC_SCALE env handling, cluster
// construction helpers and CSV-ish result printing.
#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pocc::bench {

Scale scale_from_env() {
  Scale s;
  const char* env = std::getenv("POCC_SCALE");
  s.full = env != nullptr && std::strcmp(env, "full") == 0;
  return s;
}

cluster::SimClusterConfig paper_config(SystemKind system,
                                       std::uint32_t partitions,
                                       std::uint64_t seed) {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = partitions;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::aws_three_dc();
  cfg.latency.intra_dc_base_us = 500;
  cfg.latency.jitter_mean_us = 60;
  // NTP-grade synchronization (§V-A: clocks synced before each experiment):
  // ~1 ms error across sites (WAN), ~150 us between nodes of one DC (LAN).
  cfg.clock.offset_sigma_us = 150.0;
  cfg.clock.dc_offset_sigma_us = 1'000.0;
  cfg.clock.drift_ppm_sigma = 10.0;
  // CPU cost model calibrated so a full-scale (96-node) deployment saturates
  // in the paper's ~0.6-0.7 Mops/s range on the 32:1 workload (§V-B).
  cfg.service.cores = 2;
  cfg.service.get_us = 260;
  cfg.service.put_us = 300;
  cfg.service.replicate_us = 60;
  cfg.service.heartbeat_us = 10;
  cfg.service.version_hop_us = 20;
  cfg.service.tx_coord_us = 150;
  cfg.service.tx_coord_per_part_us = 40;
  cfg.service.slice_us = 150;
  cfg.service.slice_per_key_us = 60;
  cfg.service.stabilization_us = 25;
  cfg.service.gc_round_us = 40;
  cfg.protocol.heartbeat_interval_us = 1'000;      // §V-A: 1 ms
  cfg.protocol.stabilization_interval_us = 5'000;  // §V-A: 5 ms
  cfg.protocol.gc_interval_us = 100'000;
  cfg.protocol.put_dependency_wait = true;  // §V-A
  cfg.system = system;
  cfg.seed = seed;
  cfg.enable_checker = false;
  return cfg;
}

workload::WorkloadConfig paper_workload() {
  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 32;
  wl.think_time_us = 25'000;       // §V-A
  wl.zipf_theta = 0.99;            // §V-A
  wl.keys_per_partition = 1'000'000;
  wl.value_size = 8;
  return wl;
}

cluster::ClusterMetrics run_point(const cluster::SimClusterConfig& cfg,
                                  const workload::WorkloadConfig& wl,
                                  std::uint32_t clients_per_partition,
                                  Duration warmup_us, Duration measure_us) {
  cluster::SimCluster sim_cluster(cfg);
  sim_cluster.add_workload_clients(clients_per_partition, wl);
  sim_cluster.run_for(warmup_us);
  sim_cluster.begin_measurement();
  sim_cluster.run_for(measure_us);
  cluster::ClusterMetrics m = sim_cluster.end_measurement();
  sim_cluster.stop_clients();
  return m;
}

void print_banner(const std::string& figure, const std::string& description,
                  const Scale& scale) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("scale: %s (POCC_SCALE=small|full)\n", scale.name());
  std::printf("==============================================================\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    std::printf("%-16s", c.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

void print_csv_header(const std::string& figure,
                      const std::vector<std::string>& columns) {
  std::printf("# CSV %s\n", figure.c_str());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", columns[i].c_str());
  }
  std::printf("\n");
}

void print_csv_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string fmt_mops(double ops_per_sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", ops_per_sec / 1e6);
  return buf;
}

}  // namespace pocc::bench
