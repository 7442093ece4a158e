// SimCluster — the simulated geo-replicated deployment.
//
// Wires M data centers x N partitions of protocol engines (POCC, Cure* or
// HA-POCC) onto the discrete-event simulator: per-node CPUs (queueing
// stations), skewed physical clocks, and a latency-modeled FIFO network. Adds
// closed-loop workload clients, the measurement machinery that reproduces the
// paper's metrics, fault injection (DC partitions) and the online causal-
// consistency checker. This is the substrate substituting for the paper's
// 96-node AWS test-bed (see docs/DESIGN.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "checker/history_checker.hpp"
#include "cluster/sim_client.hpp"
#include "cluster/sim_node.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "server/engine_factory.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/registry.hpp"
#include "workload/workload.hpp"

namespace pocc::cluster {

struct SimClusterConfig {
  TopologyConfig topology{3, 8, PartitionScheme::kPrefix};
  LatencyConfig latency = LatencyConfig::aws_three_dc();
  ClockConfig clock;
  ServiceConfig service;
  ProtocolConfig protocol;
  SystemKind system = SystemKind::kPocc;
  std::uint64_t seed = 1;
  /// Attach the causal-consistency checker (tests; costs memory and time).
  bool enable_checker = false;
};

/// Metrics aggregated over one measurement window — the quantities plotted in
/// the paper's Figures 1-3.
struct ClusterMetrics {
  Duration window_us = 0;
  std::uint64_t completed_ops = 0;
  double throughput_ops_per_sec = 0.0;
  // Client-observed latencies (Fig. 1b/3b), merged over the clients.
  stats::Histogram get_latency_us;
  stats::Histogram put_latency_us;
  stats::Histogram tx_latency_us;
  double avg_latency_us = 0.0;  // over all three
  // Server side: the window's growth of the pocc_engine_* series poccd
  // exports, summed over every data center's registry. Blocking (Fig.
  // 2a/3c), over the GETs, PUTs and RO-TX slices served:
  std::uint64_t blocking_ops = 0;
  double blocking_probability = 0.0;        // share that parked
  double macro_blocking_probability = 0.0;  // ... > kMacroBlockingUs
  stats::Histogram blocked_us;              // how long the parked ones waited
  // Staleness (Fig. 2b/3d), over the items GETs and slices returned:
  double pct_old = 0.0;                // % with a fresher version in chain
  double pct_unmerged = 0.0;           // % with a not-yet-stable version
  double avg_fresher_versions = 0.0;   // per old read
  double avg_unmerged_versions = 0.0;  // per unmerged read
  double avg_cpu_utilization = 0.0;
  net::NetworkStats network;
  std::uint64_t session_fallbacks = 0;  // HA: sessions closed by timeout
};

class SimCluster {
 public:
  explicit SimCluster(SimClusterConfig cfg);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  // ----- clients -----
  /// Add `per_partition` closed-loop workload clients per partition per DC
  /// (the paper's "#Clients/partition", §V-C).
  void add_workload_clients(std::uint32_t per_partition,
                            const workload::WorkloadConfig& wl);

  /// A client driven manually with blocking calls (tests, examples). Lives in
  /// `dc`, collocated with partition `home`.
  SimClient& create_manual_client(DcId dc, PartitionId home = 0);

  /// Stop issuing new workload operations (lets the cluster drain).
  void stop_clients();

  // ----- time control -----
  /// Advance virtual time by `d`.
  void run_for(Duration d);
  /// Run events until `pred()` holds or `max_wait` virtual time elapses.
  /// Returns true if the predicate held.
  bool pump_until(const std::function<bool()>& pred, Duration max_wait);

  // ----- measurement -----
  /// Start a measurement window: clear the client, CPU and network
  /// statistics and snapshot every data center's registry.
  void begin_measurement();
  /// Close the window and aggregate; server-side metrics are the registry
  /// series' growth since begin_measurement().
  ClusterMetrics end_measurement();
  [[nodiscard]] bool measuring() const { return measuring_; }

  // ----- fault injection -----
  void partition_dcs(DcId a, DcId b);
  void heal_dcs(DcId a, DcId b);
  void isolate_dc(DcId dc);
  void heal_dc(DcId dc);
  [[nodiscard]] bool has_active_partitions() const;

  /// Fail-stop crash of one node (fault layer, src/fault/). The process
  /// dies: its RAM state (parked requests, pending transactions) is lost and
  /// client requests bounce; the multiversion store and version vector
  /// survive as a checkpoint image, and peer replication streams are held
  /// by the peers' durable logs (see SimNode::crash).
  void crash_node(NodeId id);
  /// Reboot a crashed node: a fresh engine restored from the checkpoint
  /// image, timers re-armed, replica state rebuilt from the peers'
  /// backlogged streams in FIFO order.
  /// Returns the number of replicated versions recovered.
  std::uint64_t restart_node(NodeId id);
  [[nodiscard]] bool node_down(NodeId id);
  /// Physical clock of one node (fault layer: bounded skew/drift ramps).
  PhysicalClock& clock_at(NodeId id);

  /// Deterministic digest of the end state: every store, version vector, the
  /// event/op counters and network totals. Two runs of the same seed and the
  /// same fault plan must produce bit-identical digests (fuzz replay check).
  [[nodiscard]] std::uint64_t state_digest() const;
  /// HA-POCC: declare `dc` permanently lost; every node discards versions
  /// depending on updates that will never arrive (§III-B). Returns the total
  /// number of versions discarded.
  std::uint64_t declare_dc_lost(DcId dc);

  // ----- introspection -----
  [[nodiscard]] const SimClusterConfig& config() const { return cfg_; }
  /// Data center `dc`'s registry: the pocc_engine_* series of its engines,
  /// as one poccd process holds them.
  stats::Registry& registry(DcId dc) { return *registries_.at(dc); }
  server::ReplicaBase& engine(NodeId id);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  sim::Simulator& simulator() { return sim_; }
  net::SimNetwork& network() { return *net_; }
  checker::HistoryChecker* checker() { return checker_.get(); }
  [[nodiscard]] const std::vector<std::unique_ptr<SimClient>>& clients()
      const {
    return clients_;
  }

  /// After the workload stopped and replication drained: keys whose freshest
  /// version differs across DCs (must be empty — convergence, §II-B).
  [[nodiscard]] std::vector<std::string> divergent_keys() const;

  /// Sum of parked (stalled) requests across all servers.
  [[nodiscard]] std::size_t total_parked_requests() const;

 private:
  friend class SimClient;

  SimNode& node_at(NodeId id);
  [[nodiscard]] NodeId node_for_key(DcId dc, KeyId key) const;
  /// Builds a protocol engine for the configured system, checker observer
  /// wired. Used at construction and by SimNode::restart to rebuild a
  /// crashed node's engine.
  std::unique_ptr<server::ReplicaBase> make_engine(NodeId id,
                                                   server::Context& ctx);

  SimClusterConfig cfg_;
  sim::Simulator sim_;
  Rng root_rng_;
  std::unique_ptr<net::SimNetwork> net_;
  /// One per data center; declared before nodes_, whose engines hold
  /// pointers into them.
  std::vector<std::unique_ptr<stats::Registry>> registries_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  std::unique_ptr<checker::HistoryChecker> checker_;
  ClientId next_client_id_ = 1;
  bool measuring_ = false;
  Timestamp window_start_ = 0;
  std::vector<stats::Snapshot> window_begin_;  // per DC
};

}  // namespace pocc::cluster
