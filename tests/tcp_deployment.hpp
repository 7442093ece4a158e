// Test fixture shared by the TCP deployment suites: a 3-DC x 2-partition
// cluster hosted by THREE multi-partition TcpNodeHosts (one per DC, two worker
// threads each — the poccd group topology) behind real localhost sockets
// (ephemeral ports), driven by per-DC TcpClientPools — the same classes
// poccd / pocc_loadgen are built from, minus the process boundary.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "net/chaos.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "runtime/rt_node.hpp"

namespace pocc::net::testutil {

/// Deployment-unique client ids across all tests in this binary.
inline std::atomic<ClientId> g_next_client{1};

inline ClusterLayout small_layout(SystemKind system, Duration block_timeout_us,
                                  std::uint32_t dcs = 3) {
  ClusterLayout layout;
  layout.topology.num_dcs = dcs;
  layout.topology.partitions_per_dc = 2;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  layout.system = system;
  layout.protocol.heartbeat_interval_us = 5'000;  // gentle on single-core CI
  layout.protocol.stabilization_interval_us = 20'000;
  layout.protocol.gc_interval_us = 200'000;
  layout.protocol.block_timeout_us = block_timeout_us;
  // Addresses are filled in by Deployment once the ephemeral ports are known.
  return layout;
}

/// Data centers, and worker threads per DC host (2 partitions per DC).
struct Shape {
  std::uint32_t dcs = 3;
  std::uint32_t threads = 2;
};

/// A whole cluster + per-DC client pools, in one process over real TCP:
/// one multi-partition host per DC (by default 3 DCs, all partitions on 2
/// worker threads).
class Deployment {
 public:
  explicit Deployment(SystemKind system,
                      const ClientResilience* resilience = nullptr,
                      Duration block_timeout_us = 2'000'000,
                      Shape shape = Shape{})
      : layout_(small_layout(system, block_timeout_us, shape.dcs)) {
    const auto& topo = layout_.topology;
    std::uint64_t seed = 1;
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
      ProcessSpec spec;
      spec.dc = dc;
      for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
        spec.parts.push_back(p);
      }
      spec.threads = shape.threads;
      spec.host = "127.0.0.1";
      TcpNodeHost::Options opt;
      opt.listen_port = 0;  // ephemeral
      opt.seed = seed++;
      hosts_.push_back(std::make_unique<TcpNodeHost>(spec, layout_, opt));
      spec.port = hosts_.back()->port();
      layout_.processes.push_back(spec);
      for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
        layout_.nodes.push_back(
            NodeAddress{NodeId{dc, p}, "127.0.0.1", spec.port});
      }
    }
    for (auto& host : hosts_) host->start(layout_.processes);
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
      pools_.push_back(std::make_unique<TcpClientPool>(layout_, dc));
      if (resilience != nullptr) pools_.back()->set_resilience(*resilience);
      pools_.back()->start();
    }
    for (auto& pool : pools_) {
      EXPECT_TRUE(pool->wait_connected(10'000'000))
          << "client pool failed to reach all partitions";
    }
  }

  ~Deployment() { stop(); }

  /// Stop every client pool, then every host. Idempotent.
  void stop() {
    for (auto& pool : pools_) pool->stop();
    for (auto& host : hosts_) host->stop();
  }

  TcpSession& connect(DcId dc) {
    return pools_[dc]->connect(g_next_client.fetch_add(1));
  }

  std::vector<checker::SessionHistory> histories() const {
    std::vector<checker::SessionHistory> all;
    for (const auto& pool : pools_) {
      auto h = pool->histories();
      all.insert(all.end(), h.begin(), h.end());
    }
    return all;
  }

  const ClusterLayout& layout() const { return layout_; }
  TcpNodeHost& host(DcId dc) { return *hosts_[dc]; }

  std::uint64_t dropped_frames() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->dropped_frames();
    return n;
  }

  std::uint64_t local_deliveries() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->group().local_deliveries();
    return n;
  }

  std::uint64_t batched_messages() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->batch_stats().messages;
    return n;
  }

  /// Frames the hosts' transports refused (and dropped).
  std::uint64_t transport_drops() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) {
      const TransportStats t = host->transport_stats();
      n += t.send_overflows + t.down_buffer_drops;
    }
    return n;
  }

  std::uint64_t deduped_requests() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->group().deduped_requests();
    return n;
  }

  ClientResilienceStats resilience_stats() const {
    ClientResilienceStats s;
    for (const auto& pool : pools_) s += pool->resilience_stats();
    return s;
  }

  /// Arm every inter-DC replication link with a schedule-bound ChaosLink:
  /// the profile's delay/jitter plus the seed's timed partition and degrade
  /// windows, exactly as chaos_campaign does.
  void arm_server_chaos(std::uint64_t seed, const ChaosProfile& profile) {
    schedule_ = std::make_shared<ChaosSchedule>(
        seed, layout_.topology, /*horizon_us=*/2'000'000,
        /*duration_us=*/60'000'000);
    const Timestamp start = rt::steady_now_us();
    std::uint64_t n = 0;
    for (DcId src = 0; src < layout_.topology.num_dcs; ++src) {
      for (DcId dst = 0; dst < layout_.topology.num_dcs; ++dst) {
        if (src == dst) continue;
        auto link = std::make_shared<ChaosLink>(
            seed ^ (0x9e3779b97f4a7c15ULL * ++n), profile);
        link->bind_schedule(schedule_, src, dst, start);
        hosts_[src]->arm_chaos(dst, link);
      }
    }
  }

  /// Arm the one replication link src -> dst with an unscheduled ChaosLink
  /// (a slow or stalled WAN path between two DCs).
  void arm_link(DcId src, DcId dst, const ChaosProfile& profile) {
    hosts_[src]->arm_chaos(dst, std::make_shared<ChaosLink>(
                                    0x5eed0000ULL + src * 16 + dst, profile));
  }

  /// Arm every dialed client connection (both replicas when resilience
  /// dialed siblings) with an unscheduled ChaosLink — client links may
  /// carry dup/reset chaos because each partition's op_id entries absorb it.
  void arm_client_chaos(std::uint64_t seed, const ChaosProfile& profile) {
    std::uint64_t n = 0;
    for (auto& pool : pools_) {
      for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
        for (unsigned replica = 0; replica < 2; ++replica) {
          const ConnId conn = pool->conn_of(p, replica);
          if (conn == kInvalidConn) continue;
          pool->transport().set_chaos(
              conn, std::make_shared<ChaosLink>(
                        seed ^ (0x9e3779b97f4a7c15ULL * ++n), profile));
        }
      }
    }
  }

 private:
  ClusterLayout layout_;
  std::vector<std::unique_ptr<TcpNodeHost>> hosts_;
  std::vector<std::unique_ptr<TcpClientPool>> pools_;
  std::shared_ptr<ChaosSchedule> schedule_;
};

/// Poll `fn` until it returns true or the deadline passes.
inline bool eventually(Duration timeout_us, const std::function<bool()>& fn) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

inline void expect_clean_replay(const Deployment& cluster) {
  checker::HistoryChecker checker(cluster.layout().topology.num_dcs);
  const auto result = checker::replay_history(cluster.histories(), checker);
  EXPECT_TRUE(result.complete) << result.error;
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations, first: "
      << checker.violations().front();
  EXPECT_GT(checker.checks_performed(), 0u);
}

}  // namespace pocc::net::testutil
