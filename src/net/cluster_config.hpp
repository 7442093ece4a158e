// Cluster layout for the TCP deployment: which engine runs, the M x N
// topology, and which process hosts which partitions. Parsed from the poccd
// config file format (one file shared by every process of a deployment):
//
//   # comment / blank lines ignored
//   dcs 3
//   partitions 2
//   system pocc            # pocc | cure | ha_pocc | scalar_pocc
//   scheme hash            # hash | prefix (optional, default hash)
//   heartbeat_us 1000      # optional ProtocolConfig overrides
//   stabilization_us 5000
//   gc_us 50000
//   block_timeout_us 500000
//   ha_stabilization_us 100000
//   put_dependency_wait 1
//   # one line per PROCESS: its DC, the partitions it hosts, its worker
//   # threads (optional, default 1) and its listen address
//   node dc=0 parts=0-1 threads=2 addr=127.0.0.1:7450
//   node dc=1 parts=0-1 threads=2 addr=127.0.0.1:7451
//   node dc=2 parts=0,1 threads=2 addr=127.0.0.1:7452
//
// Every (dc, partition) pair must be hosted by exactly one process; a
// process's partitions all belong to its one data center.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "server/engine_factory.hpp"

namespace pocc::net {

struct NodeAddress {
  NodeId node;
  std::string host;
  std::uint16_t port = 0;
};

/// One poccd process: the partitions of one DC it hosts, its worker-thread
/// count, and the address it listens on.
struct ProcessSpec {
  DcId dc = 0;
  std::vector<PartitionId> parts;  // sorted, non-empty
  std::uint32_t threads = 1;
  std::string host;
  std::uint16_t port = 0;

  [[nodiscard]] bool hosts(NodeId node) const;
};

struct ClusterLayout {
  TopologyConfig topology;
  SystemKind system = SystemKind::kPocc;
  ProtocolConfig protocol;
  /// Per-node dial addresses (derived from `processes` when parsing; group
  /// members share their process's address). Clients look up the address
  /// of the partition a worker's socket is dialed for (the worker's lowest;
  /// see net/tcp_client.hpp), and tests override it with ephemeral ports.
  std::vector<NodeAddress> nodes;
  /// Per-process hosting specs — the deployment's unit of launch.
  std::vector<ProcessSpec> processes;

  [[nodiscard]] const NodeAddress* find(NodeId node) const;
  [[nodiscard]] const ProcessSpec* process_for(NodeId node) const;
  /// True when every (dc, partition) pair has exactly one address.
  [[nodiscard]] bool complete() const;
};

/// Parse a layout. On failure returns nullopt and sets `*error`.
std::optional<ClusterLayout> parse_cluster_config(std::istream& in,
                                                  std::string* error);

/// Load + parse a layout file.
std::optional<ClusterLayout> load_cluster_config(const std::string& path,
                                                 std::string* error);

/// Render `layout` in the config file format (used by tests and the e2e
/// harness to generate deployments programmatically).
std::string format_cluster_config(const ClusterLayout& layout);

}  // namespace pocc::net
