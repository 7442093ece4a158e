#include "net/tcp_node_host.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "store/key_space.hpp"

namespace pocc::net {

namespace {

/// Backoff hint carried in Overloaded replies.
constexpr Duration kOverloadRetryAfterUs = 20'000;

/// Per-process rng seed, distinct across the deployment's hosts. Asserts
/// here (rather than in the constructor body) because the member
/// initializer list needs the first hosted partition.
std::uint64_t host_seed(const ProcessSpec& spec, std::uint64_t seed) {
  POCC_ASSERT_MSG(!spec.parts.empty(), "a host serves at least one partition");
  const std::uint64_t flat =
      (static_cast<std::uint64_t>(spec.dc) << 32) | spec.parts.front();
  return seed ^ (flat * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
}

}  // namespace

TcpNodeHost::TcpNodeHost(ProcessSpec self, const ClusterLayout& layout,
                         Options options)
    : self_(std::move(self)),
      layout_(layout),
      opt_(options),
      rng_(host_seed(self_, options.seed)),
      transport_(
          TcpTransport::Callbacks{
              [this](ConnId c, proto::Frame f) { on_frame(c, std::move(f)); },
              nullptr,
              [this](ConnId c) { on_disconnected(c); },
              // Transport loop i IS worker i's thread — one
              // service pass per loop iteration, socket → decode → engine
              // with no cross-thread hop for pinned connections.
              [this](std::uint32_t loop) { return on_loop_pass(loop); },
              [this](const proto::Frame& first) { return place(first); },
          },
          [this] {
            TcpTransport::Options t;
            // One event-loop shard per NodeGroup worker (same clamp the
            // group applies), so every worker has exactly one owning loop.
            const auto parts = static_cast<std::uint32_t>(self_.parts.size());
            t.num_loops = std::max<std::uint32_t>(
                1, self_.threads == 0 ? parts
                                      : std::min(self_.threads, parts));
            return t;
          }()) {
  POCC_ASSERT_MSG(self_.dc < layout_.topology.num_dcs,
                  "host dc outside the layout topology");
  for (const PartitionId p : self_.parts) {
    POCC_ASSERT_MSG(p < layout_.topology.partitions_per_dc,
                    "hosted partition outside the layout topology");
  }
  transport_.listen(opt_.listen_port);

  if (!opt_.data_dir.empty()) {
    wal_ = std::make_unique<wal::WalManager>(opt_.data_dir);
  }

  rt::NodeGroup::Options group_opt;
  group_opt.threads = self_.threads;
  group_opt.clock = opt_.clock;
  group_opt.seed = rng_.next();
  group_opt.wal = wal_.get();
  group_opt.max_inbox_messages = opt_.max_inbox_messages;
  group_opt.registry = &registry_;
  group_opt.wake = [this](std::uint32_t w) { transport_.wake_loop(w); };
  group_ = std::make_unique<rt::NodeGroup>(self_.dc, self_.parts, *this,
                                           group_opt);
  tx_coordinator_part_ = group_->hosts(NodeId{self_.dc, 0})
                             ? 0
                             : group_->partitions().front();

  group_->install_engines([this](NodeId id, server::Context& ctx) {
    return make_engine(layout_.system, id, layout_.topology, layout_.protocol,
                       ServiceConfig{}, ctx);
  });

  // Rebuild each engine from its durable image before anything can touch it
  // (no workers yet): newest valid snapshot, then the segment suffix.
  if (wal_ != nullptr) {
    for (const PartitionId p : self_.parts) {
      server::ReplicaBase& eng = group_->engine(p);
      replay_stats_.push_back(wal_->wal_for(p).replay(
          [&eng](const store::Version& v) { eng.restore_version(v); },
          [&eng](const VersionVector& vv) { eng.restore_vv(vv); }));
      const auto& rs = replay_stats_.back();
      log("partition " + std::to_string(p) + " replayed " +
          std::to_string(rs.snapshot_versions) + " snapshot + " +
          std::to_string(rs.log_versions) + " log versions");
    }
  }
}

TcpNodeHost::~TcpNodeHost() { stop(); }

void TcpNodeHost::start() { start(layout_.processes); }

void TcpNodeHost::start(const std::vector<ProcessSpec>& peers) {
  const bool already_started = started_.exchange(true);
  POCC_ASSERT_MSG(!already_started, "start() called twice");
  for (const ProcessSpec& peer : peers) {
    if (peer.dc == self_.dc && peer.parts == self_.parts) continue;  // self
    auto link = std::make_unique<Link>();
    link->spec = peer;
    link->conn = transport_.connect_peer(peer.host, peer.port);
    std::vector<std::uint8_t> hello;
    proto::encode(proto::NodeHello{NodeId{self_.dc, self_.parts.front()}},
                  hello);
    transport_.set_greeting(link->conn, std::move(hello));
    link->batcher =
        std::make_unique<LinkBatcher>(transport_, link->conn, BatchPolicy{});
    for (const PartitionId p : peer.parts) {
      const bool inserted =
          link_by_node_.emplace(flat(NodeId{peer.dc, p}), link.get()).second;
      POCC_ASSERT_MSG(inserted, "two processes host the same (dc, partition)");
    }
    links_.push_back(std::move(link));
  }
  // Every node of the topology must be reachable: hosted here or linked.
  for (DcId dc = 0; dc < layout_.topology.num_dcs; ++dc) {
    for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
      const NodeId node{dc, p};
      POCC_ASSERT_MSG(group_->hosts(node) || link_by_node_.contains(flat(node)),
                      "peer list must cover every node of the topology");
    }
  }
  // Peer recovery: before the workers run, each durable engine asks its
  // sibling replicas for the replication suffix past its restored VV (the
  // RecoveryReqs stage into the batchers here and leave once the transport
  // connects) and holds client work until its RecoveryDones are back — a
  // fresh cluster answers instantly (empty stores), so the gate only bites
  // after a real crash.
  if (wal_ != nullptr) {
    for (const PartitionId p : self_.parts) {
      group_->engine(p).begin_peer_recovery(opt_.recovery_deadline_us);
    }
  }
  register_metrics();
  if (!opt_.metrics_addr.empty()) {
    metrics_server_.handle("/metrics", [this] {
      return HttpServer::Response{
          200, "text/plain; version=0.0.4; charset=utf-8",
          stats::render_prometheus(registry_.snapshot())};
    });
    metrics_server_.handle("/healthz", [] {
      return HttpServer::Response{200, "text/plain; charset=utf-8", "ok\n"};
    });
    metrics_server_.handle("/readyz", [this] {
      return ready() ? HttpServer::Response{200, "text/plain; charset=utf-8",
                                            "ready\n"}
                     : HttpServer::Response{503, "text/plain; charset=utf-8",
                                            "not ready\n"};
    });
    if (metrics_server_.start(opt_.metrics_addr)) {
      log("metrics on " + opt_.metrics_addr + " (port " +
          std::to_string(metrics_server_.port()) + ")");
    } else {
      log("metrics bind FAILED on " + opt_.metrics_addr);
    }
  }
  group_->start();  // marks started; the transport loops drive it
  transport_.start();
  log("serving " + std::to_string(self_.parts.size()) + " partitions on " +
      std::to_string(group_->threads()) + " workers, port " +
      std::to_string(port()) +
      (recovering() ? ", awaiting peer recovery" : ""));
}

void TcpNodeHost::stop() {
  if (!started_.exchange(false)) return;
  // Scrape endpoint first: its handlers read state the teardown below
  // dismantles.
  metrics_server_.stop();
  // The transport loops ARE the worker threads, so they stop first (their
  // exit pass drains the outboxes best-effort), then the group runs its
  // final timer/durability pass on this thread.
  for (const auto& link : links_) link->batcher->flush();
  transport_.stop();
  group_->stop();
  if (wal_ != nullptr) wal_->stop();  // drain queued checkpoint commits
}

void TcpNodeHost::crash_stop() {
  if (!started_.exchange(false)) return;
  metrics_server_.stop();
  // Deliberately NO batcher flush — staged replication frames die with the
  // process, exactly like kill -9. Same for the WAL tail: records past the
  // last group commit are discarded, not synced (no output depended on
  // them; Slot held those back). Transport first: its loops own the workers.
  transport_.stop();
  group_->stop();
  if (wal_ != nullptr) {
    for (const PartitionId p : self_.parts) {
      wal_->wal_for(p).discard_unsynced();
    }
    wal_->stop();
  }
}

bool TcpNodeHost::recovering() const {
  // The partitions are immutable after construction; recovering() is an
  // atomic read.
  return std::any_of(self_.parts.begin(), self_.parts.end(),
                     [this](PartitionId p) {
                       return group_->engine(p).recovering();
                     });
}

bool TcpNodeHost::ready() const {
  if (!started_ || recovering()) return false;
  // links_ is immutable once start() returns (and the metrics server only
  // runs after that); connected() takes the owning shard's mutex.
  for (const auto& link : links_) {
    if (!transport_.connected(link->conn)) return false;
  }
  return true;
}

void TcpNodeHost::arm_chaos(DcId peer_dc, std::shared_ptr<ChaosLink> link) {
  for (const auto& l : links_) {
    if (l->spec.dc == peer_dc) transport_.set_chaos(l->conn, link);
  }
}

BatchStats TcpNodeHost::batch_stats() const {
  BatchStats total;
  for (const auto& link : links_) total += link->batcher->stats();
  return total;
}

void TcpNodeHost::register_metrics() {
  stats::Registry& r = registry_;
  // --- transport (TransportStats aggregates its shards under their locks) --
  struct TransportField {
    const char* name;
    std::uint64_t TransportStats::*field;
  };
  static constexpr TransportField kTransport[] = {
      {"pocc_transport_frames_in_total", &TransportStats::frames_in},
      {"pocc_transport_frames_out_total", &TransportStats::frames_out},
      {"pocc_transport_bytes_in_total", &TransportStats::bytes_in},
      {"pocc_transport_bytes_out_total", &TransportStats::bytes_out},
      {"pocc_transport_accepts_total", &TransportStats::accepts},
      {"pocc_transport_reconnects_total", &TransportStats::reconnects},
      {"pocc_transport_decode_errors_total", &TransportStats::decode_errors},
      {"pocc_transport_send_overflows_total", &TransportStats::send_overflows},
      {"pocc_transport_down_buffer_drops_total",
       &TransportStats::down_buffer_drops},
      {"pocc_transport_migrations_total", &TransportStats::migrations},
      // Copy-path accounting (scatter-gather flush + pooled buffers):
      // sendmsg_frames / sendmsg_calls is the coalescing ratio, arena_hits /
      // (hits + misses) the buffer-recycle rate.
      {"pocc_transport_sendmsg_calls_total", &TransportStats::sendmsg_calls},
      {"pocc_transport_sendmsg_frames_total", &TransportStats::sendmsg_frames},
      {"pocc_transport_arena_hits_total", &TransportStats::arena_hits},
      {"pocc_transport_arena_misses_total", &TransportStats::arena_misses},
      // Wake-pipe writes: cross-thread wakes only (a loop never writes its
      // own pipe); per client request it is the wake cost of the op path.
      {"pocc_transport_wake_writes_total", &TransportStats::wake_writes},
  };
  for (const auto& f : kTransport) {
    r.counter_fn(f.name, {},
                 [this, field = f.field] { return transport_.stats().*field; });
  }
  // --- replication batching (summed over peer links) ---
  struct BatchField {
    const char* name;
    std::uint64_t BatchStats::*field;
  };
  static constexpr BatchField kBatch[] = {
      {"pocc_batch_messages_total", &BatchStats::messages},
      {"pocc_batch_batches_total", &BatchStats::batches},
      {"pocc_batch_protocol_bytes_total", &BatchStats::protocol_bytes},
      {"pocc_batch_overhead_bytes_total", &BatchStats::overhead_bytes},
  };
  for (const auto& f : kBatch) {
    r.counter_fn(f.name, {},
                 [this, field = f.field] { return batch_stats().*field; });
  }
  r.gauge_fn("pocc_batch_pending_bytes", {}, [this] {
    std::int64_t total = 0;
    for (const auto& link : links_) {
      total += static_cast<std::int64_t>(transport_.queued_bytes(link->conn));
    }
    return total;
  }, "Replication bytes queued in the transport on peer links");
  // --- host admission / client session plane ---
  r.counter_fn("pocc_host_deduped_requests_total", {},
               [this] { return group_->deduped_requests(); },
               "Client request copies the partitions absorbed (hit rate = "
               "this / pocc_host_client_requests_total)");
  r.counter_fn("pocc_local_deliveries_total", {},
               [this] { return group_->local_deliveries(); },
               "Cross-partition messages delivered without a socket");
  r.gauge_fn("pocc_host_recovering", {},
             [this] { return recovering() ? 1 : 0; });
  r.gauge_fn("pocc_host_ready", {}, [this] { return ready() ? 1 : 0; },
             "The /readyz predicate");
  // --- per-partition: inbox depth, store, WAL (the engines registered
  // their own pocc_engine_* series at construction) ---
  for (std::size_t i = 0; i < self_.parts.size(); ++i) {
    const PartitionId p = self_.parts[i];
    const stats::Labels part_label = {{"part", std::to_string(p)}};
    r.gauge_fn("pocc_inbox_depth", part_label, [this, p] {
      return static_cast<std::int64_t>(group_->inbox_depth(p));
    });
    const server::ReplicaBase* eng = &group_->engine(p);
    r.gauge_fn("pocc_store_keys", part_label, [eng] {
      return static_cast<std::int64_t>(eng->partition_store().stats().keys);
    });
    r.gauge_fn("pocc_store_versions", part_label, [eng] {
      return static_cast<std::int64_t>(eng->partition_store().stats().versions);
    });
    r.gauge_fn("pocc_store_multi_version_keys", part_label, [eng] {
      return static_cast<std::int64_t>(
          eng->partition_store().stats().multi_version_keys);
    });
    r.counter_fn("pocc_store_gc_removed_total", part_label, [eng] {
      return eng->partition_store().stats().gc_removed;
    });
    if (wal_ != nullptr) {
      wal::PartitionWal* wal = &wal_->wal_for(p);
      r.counter_fn("pocc_wal_syncs_total", part_label,
                   [wal] { return wal->syncs(); });
      r.counter_fn("pocc_wal_synced_bytes_total", part_label,
                   [wal] { return wal->synced_bytes(); });
      // Replay stats are immutable after the constructor's restore pass.
      const auto& rs = replay_stats_[i];
      r.gauge("pocc_wal_replay_log_versions", part_label)
          ->set(static_cast<std::int64_t>(rs.log_versions));
      r.gauge("pocc_wal_replay_snapshot_versions", part_label)
          ->set(static_cast<std::int64_t>(rs.snapshot_versions));
      r.gauge("pocc_wal_replay_torn_bytes", part_label)
          ->set(static_cast<std::int64_t>(rs.torn_bytes));
    }
  }
}

void TcpNodeHost::log(const std::string& what) const {
  if (!opt_.verbose) return;
  std::fprintf(stderr, "[poccd dc%u] %s\n", self_.dc, what.c_str());
}

void TcpNodeHost::route(NodeId from, NodeId to, proto::Message m) {
  // NodeGroup short-circuits hosted destinations, so everything here leaves
  // the process. links_/link_by_node_ are immutable once the workers run.
  auto it = link_by_node_.find(flat(to));
  POCC_ASSERT_MSG(it != link_by_node_.end(),
                  "send to a node outside the layout");
  it->second->batcher->add(from, to, m);
}

void TcpNodeHost::route_to_client(NodeId /*from*/, ClientId client,
                                  proto::Message m) {
  ConnId conn = kInvalidConn;
  {
    std::lock_guard lk(mu_);
    auto it = client_conn_.find(client);
    if (it != client_conn_.end()) conn = it->second;
  }
  if (conn == kInvalidConn) {
    // The client disconnected (or never sent a request here): a reply to a
    // departed session is dropped, exactly like a real server would.
    dropped_->inc();
    return;
  }
  std::vector<std::uint8_t> frame;
  proto::encode(m, frame);
  if (!transport_.send(conn, std::move(frame))) dropped_->inc();
}

Timestamp TcpNodeHost::on_loop_pass(std::uint32_t loop) {
  Timestamp next = group_->service(loop);
  // Pass-clocked replication: what the pass staged leaves as the pass ends
  // (service() ran the group commit, so held sends are already staged). A
  // busy pass still coalesces its Replicates; a lone PUT waits for nothing.
  // Each link is flushed by its owning loop, which writes its own socket
  // and gathers every worker's messages into one frame; a pass that staged
  // into another loop's link wakes that loop (at most one pipe write per
  // wait) instead of sending a frame of its own.
  for (const auto& link : links_) {
    const std::uint32_t owner = TcpTransport::loop_of(link->conn);
    if (owner == loop) {
      link->batcher->flush();
    } else if (link->batcher->staged()) {
      transport_.wake_loop(owner);
    }
  }
  return next;
}

bool TcpNodeHost::replication_backlogged() const {
  // links_ is immutable once the workers run; backlogged() locks the
  // link's shard. Any backlogged peer link sheds NEW client work: its queue
  // is this DC's own undelivered updates, and admitting more PUTs only
  // deepens it until the transport drops.
  return std::any_of(links_.begin(), links_.end(), [this](const auto& link) {
    return transport_.backlogged(link->conn);
  });
}

void TcpNodeHost::send_overloaded(ConnId conn, ClientId client,
                                  std::uint64_t op_id) {
  proto::Message m =
      proto::Overloaded{client, kOverloadRetryAfterUs, op_id};
  std::vector<std::uint8_t> frame;
  proto::encode(m, frame);
  transport_.send(conn, std::move(frame));
  overloaded_->inc();
}

void TcpNodeHost::dispatch_client_request(ConnId conn, proto::Message m) {
  // Client requests carry no destination node — the process dispatches by
  // key placement (the client dialed this process because it hosts the
  // partition; recompute instead of trusting the connection).
  ClientId client = 0;
  std::uint64_t op_id = 0;
  PartitionId part = 0;
  if (const auto* get = std::get_if<proto::GetReq>(&m)) {
    client = get->client;
    op_id = get->op_id;
    part = store::KeySpace::global().partition(
        get->key, layout_.topology.partitions_per_dc,
        layout_.topology.partition_scheme);
  } else if (const auto* put = std::get_if<proto::PutReq>(&m)) {
    client = put->client;
    op_id = put->op_id;
    part = store::KeySpace::global().partition(
        put->key, layout_.topology.partitions_per_dc,
        layout_.topology.partition_scheme);
  } else if (const auto* tx = std::get_if<proto::RoTxReq>(&m)) {
    client = tx->client;
    op_id = tx->op_id;
    part = tx_coordinator_part_;
  }
  const NodeId to{self_.dc, part};
  if (!group_->hosts(to)) {
    dropped_->inc();
    log("dropped " + std::string(proto::message_name(m)) +
        " for partition this process does not host");
    return;
  }
  {
    std::lock_guard lk(mu_);
    client_conn_[client] = conn;
  }
  client_requests_->inc();
  // Self-protection: refuse (rather than queue without bound) when the
  // target worker's inbox is full or a replication link is backed up. The
  // Overloaded reply tells the client to back off and retry the same
  // op_id; a retry of an op admitted earlier is absorbed by its partition.
  if (replication_backlogged() || !group_->try_enqueue(to, to, std::move(m))) {
    send_overloaded(conn, client, op_id);
  }
}

void TcpNodeHost::on_frame(ConnId conn, proto::Frame frame) {
  if (const auto* hello = std::get_if<proto::NodeHello>(&frame)) {
    std::lock_guard lk(mu_);
    conn_peer_[conn] = hello->node;
    return;
  }
  if (const auto* hello = std::get_if<proto::ClientHello>(&frame)) {
    if (hello->client != 0) {
      std::lock_guard lk(mu_);
      client_conn_[hello->client] = conn;
    }
    return;
  }
  if (auto* batch = std::get_if<proto::BatchFrame>(&frame)) {
    // Admission: server-to-server traffic is only accepted from connections
    // that greeted with NodeHello (the transport replays the greeting ahead
    // of buffered frames on every (re)connect) — a client connection must
    // not be able to inject spoofed replication/GC traffic.
    bool greeted = false;
    {
      std::lock_guard lk(mu_);
      greeted = conn_peer_.contains(conn);
    }
    if (!greeted) {
      dropped_->inc(batch->items.size());
      log("dropped batch from un-greeted connection");
      return;
    }
    for (proto::RoutedMessage& item : batch->items) {
      if (!group_->hosts(item.to)) {
        dropped_->inc();
        log("dropped batched " + std::string(proto::message_name(item.msg)) +
            " addressed to " + item.to.to_string());
        continue;
      }
      group_->enqueue(item.from, item.to, std::move(item.msg));
    }
    return;
  }

  auto& m = std::get<proto::Message>(frame);
  const bool is_client_request = std::holds_alternative<proto::GetReq>(m) ||
                                 std::holds_alternative<proto::PutReq>(m) ||
                                 std::holds_alternative<proto::RoTxReq>(m);
  if (is_client_request) {
    dispatch_client_request(conn, std::move(m));
    return;
  }
  // Server-to-server traffic always rides Batch frames (explicit routing
  // envelopes); a bare protocol message from a peer has no well-defined
  // destination in a multi-partition process.
  dropped_->inc();
  log("dropped unbatched " + std::string(proto::message_name(m)) +
      " from a peer connection");
}

std::int32_t TcpNodeHost::place(const proto::Frame& first) const {
  // Pinning: the client pool greets each connection with the partition it
  // dialed it for (re-sent on every reconnect), and the socket lives on the
  // event loop driving that partition's worker, so its requests run
  // socket → decode → engine on one thread. Loop i drives worker i.
  const auto* hello = std::get_if<proto::ClientHello>(&first);
  if (hello == nullptr || hello->preferred_part == proto::kNoPreferredPart ||
      !group_->hosts(NodeId{self_.dc, hello->preferred_part})) {
    return -1;
  }
  return static_cast<std::int32_t>(group_->worker_of(hello->preferred_part));
}

void TcpNodeHost::on_disconnected(ConnId conn) {
  std::lock_guard lk(mu_);
  conn_peer_.erase(conn);
  for (auto it = client_conn_.begin(); it != client_conn_.end();) {
    if (it->second == conn) {
      it = client_conn_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace pocc::net
