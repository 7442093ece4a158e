// One protocol PROCESS served over real TCP: a host carries every
// partition its ProcessSpec names — all partitions of a data center in the
// standard 3-process deployment — on an rt::NodeGroup. This is the
// building block of `poccd` (one process per DC) and of the in-process e2e
// tests (several hosts, one test process — same code path, real sockets
// either way).
//
// Composition: a TcpTransport (sockets + framing + reconnect) whose event
// loop i drives NodeGroup worker i, with this class as the rt::Router in
// between: it stages each outbound message into the destination link's
// LinkBatcher, and every loop pass ends by flushing what it staged. The
// flushed Batch frame goes straight into the transport outbox, the one
// buffer behind a link; once it holds half the transport's down cap the
// host refuses new client requests with Overloaded, so a slow or absent
// peer pushes back on admission long before the transport has to drop a
// frame. The engines cannot tell the difference from the simulator
// (server::Context is identical), which is the point: the TCP deployment
// runs the very same protocol code the simulator validates.
//
// Wire identity and addressing:
//   * to each peer PROCESS this host keeps one persistent outbound
//     connection, greeting with NodeHello{first hosted node} so logs can
//     attribute the link (the transport re-sends the greeting on every
//     reconnect, before any buffered frames);
//   * all server-to-server traffic rides Batch frames whose per-message
//     envelopes carry explicit (from, to) NodeIds — connection identity no
//     longer names the endpoints when both sides host several partitions;
//   * client requests arrive as plain Message frames; each binds its client
//     id to the connection it arrived on (replies and HA-POCC
//     SessionCloseds go back over it), and is dispatched to the hosted
//     partition that owns the request (key placement for GET/PUT, the
//     DC-local coordinator partition for RO-TX). A retried op_id is
//     absorbed by that partition's slot in the NodeGroup, not here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/cluster_config.hpp"
#include "net/http_server.hpp"
#include "net/tcp_transport.hpp"
#include "runtime/node_group.hpp"
#include "server/replica_base.hpp"
#include "stats/registry.hpp"
#include "wal/wal_manager.hpp"

namespace pocc::net {

class TcpNodeHost final : public rt::Router {
 public:
  struct Options {
    /// 0 = ephemeral (tests); poccd passes the configured port.
    std::uint16_t listen_port = 0;
    std::uint64_t seed = 1;
    ClockConfig clock = ClockConfig::perfect();
    /// Log connection events and dropped frames to stderr.
    bool verbose = false;
    /// Durable root: every hosted partition keeps its WAL + snapshots under
    /// `<data_dir>/p<part>/`. Empty disables durability entirely (the
    /// pre-WAL behavior; poccd --no-durability).
    std::string data_dir;
    /// Upper bound on each partition's recovery gate
    /// (ReplicaBase::recovering()); past it, held client requests are
    /// released even with RecoveryDones outstanding (a dead peer must not
    /// wedge this DC forever).
    Duration recovery_deadline_us = 10'000'000;
    /// Bounded admission: a client request is refused with an Overloaded
    /// reply when the target worker's inbox already holds this many
    /// messages (0 = unbounded). Server-to-server traffic is never shed —
    /// dropping it would break the lossless FIFO channel assumption.
    /// Client requests are also refused while any replication link is
    /// backlogged (TcpTransport::backlogged).
    std::size_t max_inbox_messages = 0;
    /// Observability endpoint ("host:port", port 0 = ephemeral): serves
    /// /metrics (Prometheus text), /healthz and /readyz from a dedicated
    /// event-loop thread. Empty disables the HTTP server; the stats
    /// registry is populated either way (SIGUSR2/exit dumps render it).
    std::string metrics_addr;
  };

  /// Binds the listening socket immediately (port() is valid afterwards);
  /// serving starts with start(). `self` must name partitions of one DC
  /// inside the layout topology.
  TcpNodeHost(ProcessSpec self, const ClusterLayout& layout, Options options);
  ~TcpNodeHost() override;

  TcpNodeHost(const TcpNodeHost&) = delete;
  TcpNodeHost& operator=(const TcpNodeHost&) = delete;

  [[nodiscard]] std::uint16_t port() const { return transport_.listen_port(); }
  [[nodiscard]] DcId dc() const { return group_->dc(); }
  [[nodiscard]] const ProcessSpec& spec() const { return self_; }

  /// Dial every peer process in `peers` (ignoring the entry for self) and
  /// start the worker pool. `peers` defaults to the layout's processes;
  /// tests pass the post-bind ephemeral ports instead.
  void start();
  void start(const std::vector<ProcessSpec>& peers);
  void stop();

  /// SIGKILL-equivalent in-process shutdown (crash-recovery tests): stop the
  /// workers and close the sockets WITHOUT flushing the staged batcher
  /// frames or the unsynced WAL tail — exactly the state a kill -9 leaves
  /// on disk. The durable image stays valid for a restart with the same
  /// data_dir.
  void crash_stop();

  /// True while any hosted partition's recovery gate is closed
  /// (ReplicaBase::recovering()). Safe from any thread.
  [[nodiscard]] bool recovering() const;

  /// Readiness (the /readyz predicate): started, no partition recovering,
  /// and every peer link connected.
  [[nodiscard]] bool ready() const;

  /// The unified stats registry. Every quantity this process tracks —
  /// transport, batching, admission, engines, store, WAL — registers here
  /// (the engines their own pocc_engine_* series, through their Context);
  /// /metrics, SIGUSR2 and the exit dump are renders of one snapshot().
  [[nodiscard]] stats::Registry& registry() { return registry_; }

  /// Port of the embedded metrics server (0 when Options::metrics_addr was
  /// empty or the bind failed). Valid after start().
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_server_.port();
  }

  /// Per hosted partition, what the WAL replay restored (empty when
  /// durability is off). Index-aligned with spec().parts.
  [[nodiscard]] const std::vector<wal::PartitionWal::ReplayStats>&
  replay_stats() const {
    return replay_stats_;
  }
  [[nodiscard]] wal::WalManager* wal_manager() { return wal_.get(); }

  /// Engine access for post-shutdown inspection (not thread-safe while
  /// running).
  server::ReplicaBase& engine(PartitionId part) {
    return group_->engine(part);
  }
  rt::NodeGroup& group() { return *group_; }

  /// Chaos hook (campaign/tests): pass outbound replication frames to the
  /// peer process serving `peer_dc` through `link` (delay / partition
  /// verdicts — see net/chaos.hpp). Call after start(); nullptr disarms.
  void arm_chaos(DcId peer_dc, std::shared_ptr<ChaosLink> link);

  [[nodiscard]] TransportStats transport_stats() const {
    return transport_.stats();
  }
  /// Batching accounting summed over every peer link.
  [[nodiscard]] BatchStats batch_stats() const;
  /// Frames that arrived for an unknown partition / departed client.
  [[nodiscard]] std::uint64_t dropped_frames() const {
    return dropped_->value();
  }
  /// Client requests refused with an Overloaded reply (admission control).
  [[nodiscard]] std::uint64_t overloaded_replies() const {
    return overloaded_->value();
  }
  /// Client requests that reached dispatch (the denominator of the dedup
  /// hit rate, whose numerator is group().deduped_requests()).
  [[nodiscard]] std::uint64_t client_requests() const {
    return client_requests_->value();
  }
  /// The event loop (loop i drives worker i) whose connection carried
  /// `client`'s latest request; -1 when none arrived or it disconnected.
  [[nodiscard]] std::int32_t client_loop(ClientId client) const;

  // --- rt::Router (called from the worker threads) ---
  void route(NodeId from, NodeId to, proto::Message m) override;
  void route_to_client(NodeId from, ClientId client,
                       proto::Message m) override;

 private:
  struct Link {
    ProcessSpec spec;
    ConnId conn = kInvalidConn;
    std::unique_ptr<LinkBatcher> batcher;
  };

  void on_frame(ConnId conn, proto::Frame frame);
  /// TcpTransport::Callbacks::place: the shard an accepted connection
  /// belongs on, from its first frame. Reads only group_'s immutable
  /// placement (it runs under a transport shard lock).
  [[nodiscard]] std::int32_t place(const proto::Frame& first) const;
  void on_disconnected(ConnId conn);
  /// TcpTransport::Callbacks::on_loop_pass: service worker `loop` and flush
  /// the links this loop owns (waking the owners of links it staged into).
  /// Returns the worker's next timer.
  [[nodiscard]] Timestamp on_loop_pass(std::uint32_t loop);
  void dispatch_client_request(ConnId conn, proto::Message m);
  /// True while any replication link is backlogged (admission refuses
  /// client work until the peer drains).
  [[nodiscard]] bool replication_backlogged() const;
  void send_overloaded(ConnId conn, ClientId client, std::uint64_t op_id);
  /// Populates registry_ with the scrape-time callbacks of the host, its
  /// transport, batchers, stores and WALs. Called once from start(), after
  /// links_ is final (the callbacks capture link/engine pointers that must
  /// be immutable by then).
  void register_metrics();
  void log(const std::string& what) const;
  [[nodiscard]] static std::uint64_t flat(NodeId n) {
    return (static_cast<std::uint64_t>(n.dc) << 32) | n.part;
  }

  ProcessSpec self_;
  ClusterLayout layout_;
  Options opt_;
  Rng rng_;
  /// Declared before group_ and metrics_server_: the group's workers hold
  /// histogram-cell pointers into it, and the server's handlers snapshot it.
  stats::Registry registry_;
  TcpTransport transport_;
  /// Declared before group_: slots hold raw PartitionWal pointers into it,
  /// so the group must be destroyed first.
  std::unique_ptr<wal::WalManager> wal_;
  std::unique_ptr<rt::NodeGroup> group_;
  std::vector<wal::PartitionWal::ReplayStats> replay_stats_;
  /// Partition coordinating RO-TXs for this DC (0 when hosted, else the
  /// lowest hosted partition — the one clients dial for transactions).
  PartitionId tx_coordinator_part_ = 0;

  // Immutable once start() returns (workers read them lock-free).
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<std::uint64_t, Link*> link_by_node_;

  mutable std::mutex mu_;  // guards conn_peer_ and client_conn_
  std::unordered_map<ConnId, NodeId> conn_peer_;  // inbound, via NodeHello
  std::unordered_map<ClientId, ConnId> client_conn_;
  // Registered in registry_, which is declared above them.
  stats::Counter* const dropped_ =
      registry_.counter("pocc_host_dropped_frames_total");
  stats::Counter* const overloaded_ =
      registry_.counter("pocc_host_overloaded_replies_total");
  stats::Counter* const client_requests_ =
      registry_.counter("pocc_host_client_requests_total");
  std::atomic<bool> started_{false};

  /// Last member: destroyed (and thus stopped) before anything its handlers
  /// read — the registry, the group, the transport.
  HttpServer metrics_server_;
};

}  // namespace pocc::net
