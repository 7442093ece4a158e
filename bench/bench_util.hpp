// Shared infrastructure for the figure-reproduction harnesses.
//
// Every harness reproduces one figure of the paper's evaluation (§V) on the
// simulated deployment. Scale is controlled by the POCC_SCALE environment
// variable:
//   POCC_SCALE=small  (default) — 3 DCs x 8 partitions, shorter sweeps; the
//                      whole bench suite completes in minutes on one core.
//   POCC_SCALE=full   — the paper's 3 DCs x 32 partitions and full parameter
//                      sweeps (much slower; tens of minutes per figure).
// Absolute numbers differ from the paper's AWS deployment by construction;
// EXPERIMENTS.md records the shape comparison per figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "workload/workload.hpp"

namespace pocc::bench {

struct Scale {
  bool full = false;

  [[nodiscard]] std::uint32_t partitions() const { return full ? 32 : 8; }
  /// Sweep of partition counts for Fig. 1a.
  [[nodiscard]] std::vector<std::uint32_t> partition_sweep() const {
    if (full) return {2, 4, 8, 16, 24, 32};
    return {2, 4, 8};
  }
  /// Sweep of clients per partition (per DC) for the load-driven figures.
  /// The top end sits just past the saturation knee, mirroring the x-range of
  /// the paper's Figures 1b/2 (which stop at the maximum throughput).
  [[nodiscard]] std::vector<std::uint32_t> client_sweep() const {
    if (full) return {16, 32, 64, 96, 144, 176, 208, 240};
    return {16, 32, 64, 96, 144, 176, 208, 240};
  }
  /// Clients per partition driving the system to its maximum throughput.
  [[nodiscard]] std::uint32_t saturating_clients() const { return 208; }
  /// Partitions contacted per RO-TX for Fig. 3a.
  [[nodiscard]] std::vector<std::uint32_t> tx_partition_sweep() const {
    if (full) return {1, 2, 4, 8, 16, 24, 32};
    return {1, 2, 4, 8};
  }
  [[nodiscard]] Duration warmup_us() const { return full ? 1'000'000 : 400'000; }
  [[nodiscard]] Duration measure_us() const {
    return full ? 3'000'000 : 1'500'000;
  }

  [[nodiscard]] const char* name() const { return full ? "full" : "small"; }
};

/// Reads POCC_SCALE from the environment.
Scale scale_from_env();

/// Deployment configuration mirroring §V-A: 3 DCs (Oregon/Virginia/Ireland
/// latencies), NTP-grade clock skew, calibrated CPU cost model, 1 ms
/// heartbeats, 5 ms Cure* stabilization, LWW with the PUT dependency wait on.
cluster::SimClusterConfig paper_config(SystemKind system,
                                       std::uint32_t partitions,
                                       std::uint64_t seed);

/// Workload defaults from §V-A: zipf(0.99) over 1M keys/partition, 8-byte
/// values, 25 ms think time.
workload::WorkloadConfig paper_workload();

/// Builds a cluster, attaches `clients_per_partition` closed-loop clients per
/// partition per DC, runs warmup then a measurement window, and returns the
/// aggregated metrics.
cluster::ClusterMetrics run_point(const cluster::SimClusterConfig& cfg,
                                  const workload::WorkloadConfig& wl,
                                  std::uint32_t clients_per_partition,
                                  Duration warmup_us, Duration measure_us);

// ----- output helpers (aligned tables + CSV for plotting) -----

/// Prints the harness banner: figure id, paper reference, scale.
void print_banner(const std::string& figure, const std::string& description,
                  const Scale& scale);

/// Prints an aligned row of columns (first call with the header).
void print_row(const std::vector<std::string>& cells);

/// CSV block delimiter so plots can be extracted mechanically.
void print_csv_header(const std::string& figure,
                      const std::vector<std::string>& columns);
void print_csv_row(const std::vector<std::string>& cells);

std::string fmt(double v, int precision = 4);
std::string fmt_mops(double ops_per_sec);

}  // namespace pocc::bench
