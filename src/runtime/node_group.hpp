// Multi-partition runtime host: every partition engine of one data center
// lives in ONE process, pinned onto a set of workers. This is what a
// `poccd` process hosts (one process per DC).
//
// Threading model (docs/ARCHITECTURE.md, "Threading model"):
//   * the group spawns NO threads. Each worker is driven by a thread its
//     owner supplies, which calls service(w) whenever Options::wake(w)
//     fires or the worker's next timer comes due (the sharded TCP
//     transport runs worker w on event loop w: socket → decode → engine
//     with zero cross-thread hops for pinned connections);
//   * partitions are THREAD-AFFINE: partition p is served by worker
//     p mod M forever — an engine's state (PartitionStore, VV, parking lot)
//     is only ever touched by its worker's driving thread, so the protocol
//     hot path takes no locks beyond each worker's inbox mutex;
//   * each worker owns one MPSC inbox (common::Ring under a mutex — the same
//     ring the simulator's CpuQueue uses) fed by the transport threads and
//     by sibling workers;
//   * cross-partition messages between two partitions of the group never
//     touch a socket: Slot::send() detects a locally-hosted destination and
//     pushes straight into the target worker's inbox (the intra-DC
//     SliceReq/GC/stabilization traffic of Alg. 2 becomes a queue push);
//   * timers are per-worker (armed and fired only on the driving thread);
//   * client retries are absorbed per partition: a session issues one op at
//     a time with growing op_ids, so each Slot keeps one entry per client —
//     the latest op_id it admitted and, once released, that op's reply —
//     and answers or drops a copy before it reaches the engine.
//
// Everything leaving the group — messages to other processes and client
// replies — flows through the rt::Router seam; the TCP host batches those
// per peer link (net/tcp_node_host.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "clock/physical_clock.hpp"
#include "common/config.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"
#include "runtime/rt_node.hpp"
#include "server/context.hpp"
#include "server/replica_base.hpp"
#include "stats/registry.hpp"
#include "wal/wal_manager.hpp"

namespace pocc::rt {

class NodeGroup {
 public:
  struct Options {
    /// Workers the partitions are pinned onto (clamped to the number of
    /// partitions; 0 means one worker per partition), by the one placement
    /// rule of runtime/placement.hpp.
    std::uint32_t threads = 1;
    ClockConfig clock = ClockConfig::perfect();
    std::uint64_t seed = 1;
    /// When set, every hosted partition writes a WAL under the manager's
    /// data directory, with OUTPUT COMMIT: a worker withholds the replies
    /// and sends a handler produces while its partition's WAL holds
    /// unsynced records, group-commits (one fdatasync per drained batch)
    /// at the end of each drain cycle, and only then releases the held
    /// outputs in order. Nothing externally visible ever depends on state
    /// a crash could lose. nullptr = no durability (simulator, tests,
    /// --no-durability).
    wal::WalManager* wal = nullptr;
    /// Bounded admission: try_enqueue() refuses new work once the target
    /// worker's inbox holds this many messages (0 = unbounded). Only the
    /// droppable admission class (client requests via try_enqueue) is
    /// refused; enqueue() — server-to-server traffic whose loss would
    /// violate the lossless FIFO channel assumption — always delivers.
    std::size_t max_inbox_messages = 0;
    /// Required: called (possibly from any thread, including the worker's
    /// own) when worker `w` gained inbox work and its driving thread must
    /// schedule a service(w) pass.
    std::function<void(std::uint32_t)> wake;
    /// Required: the registry every engine registers its series in
    /// (Slot::registry()), and where each worker registers one shard of the
    /// server-side `pocc_server_op_us{op=get|put|ro_tx}` latency histograms
    /// timing client-visible requests around handle_message (the engine
    /// seam). Must outlive the group.
    stats::Registry* registry = nullptr;
  };

  /// Builds one engine bound to `ctx` (its partition-private Context).
  using EngineFactory = std::function<std::unique_ptr<server::ReplicaBase>(
      NodeId, server::Context&)>;

  /// The group hosts `parts` of data center `dc`; `router` carries
  /// everything addressed outside the group.
  NodeGroup(DcId dc, std::vector<PartitionId> parts, Router& router,
            Options options);
  ~NodeGroup();

  NodeGroup(const NodeGroup&) = delete;
  NodeGroup& operator=(const NodeGroup&) = delete;

  /// Instantiate every partition's engine. Call once, before start().
  void install_engines(const EngineFactory& make);

  void start();
  /// Final drain: one last service pass per worker, flushing unsynced WAL
  /// tails. Call after every driving thread has stopped — the caller
  /// becomes each worker's sole toucher.
  void stop();

  [[nodiscard]] DcId dc() const { return dc_; }
  [[nodiscard]] const std::vector<PartitionId>& partitions() const {
    return parts_;
  }
  [[nodiscard]] std::uint32_t threads() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] bool hosts(NodeId node) const {
    return node.dc == dc_ && node.part < by_part_.size() &&
           by_part_[node.part] != nullptr;
  }

  /// Deliver one message to a hosted partition (thread-safe; the TCP host
  /// calls this from the transport threads, workers from each other).
  void enqueue(NodeId from, NodeId to, proto::Message m);

  /// Admission-controlled variant for droppable work (client requests):
  /// refuses (returns false, message untouched beyond the move) when the
  /// target worker's inbox is at Options::max_inbox_messages. The caller
  /// owns the refusal path (an Overloaded reply). Thread-safe.
  [[nodiscard]] bool try_enqueue(NodeId from, NodeId to, proto::Message m);

  /// Run one scheduling pass of worker `w` — fire due timers, drain the
  /// inbox to empty (group-committing per drained batch), flush durability
  /// — and return the earliest pending timer deadline (0 = none) so the
  /// driving thread can bound its sleep. MUST always be called from the
  /// same thread per worker (that thread becomes the worker's owner; the
  /// engines and timer heap are touched from it exclusively).
  Timestamp service(std::uint32_t worker);

  /// Index of the worker that owns `part` (stable for the group's lifetime
  /// — the pinning target for inbound client connections).
  [[nodiscard]] std::uint32_t worker_of(PartitionId part) const;

  /// Current depth of the worker inbox serving `part` (thread-safe; a
  /// load-shedding signal, instantaneously stale like any queue depth).
  [[nodiscard]] std::size_t inbox_depth(PartitionId part) const;

  /// Engine access for post-shutdown inspection (not thread-safe while
  /// running).
  server::ReplicaBase& engine(PartitionId part);

  /// Cross-partition messages delivered in-process so far (thread-safe).
  [[nodiscard]] std::uint64_t local_deliveries() const {
    return local_deliveries_.load(std::memory_order_relaxed);
  }

  /// Copies of client requests the slots absorbed (thread-safe): answered
  /// from a cached reply, swallowed while the original is in flight, or
  /// dropped because the session has moved past them.
  [[nodiscard]] std::uint64_t deduped_requests() const {
    return deduped_requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;

  /// Per-partition server::Context: the engine's private seam to its clock,
  /// its worker's timer heap and the group's routing.
  struct Slot final : server::Context {
    Slot(NodeGroup& group, NodeId self, const ClockConfig& clock_cfg,
         Rng& seeder);

    Timestamp clock_now() override { return clock.read(steady_now_us()); }
    Timestamp clock_peek() override { return clock.peek(steady_now_us()); }
    Timestamp time() override { return steady_now_us(); }
    void send(NodeId to, proto::Message m) override;
    void reply(ClientId client, proto::Message m) override;
    void set_timer(Duration delay, std::uint64_t timer_id) override;
    server::DurabilityLog* durability() override { return wal; }
    stats::Registry& registry() override { return *group.opt_.registry; }

    /// True when the group-commit pass has work for this slot.
    [[nodiscard]] bool needs_flush() const {
      return wal != nullptr && (wal->unsynced_bytes() > 0 || !held.empty() ||
                                wal->wants_checkpoint());
    }
    /// Owner thread, unlocked: sync the WAL, release held outputs in
    /// order, and hand a due checkpoint to the background flusher.
    void flush_durability();

    /// Owner thread: true when `m` is a copy of a client op this slot has
    /// already admitted. The copy never reaches the engine; if the op's
    /// reply has been released it is sent again.
    bool absorb_retry(const proto::Message& m);

    /// An output produced while the WAL tail was unsynced, parked until
    /// the covering group commit lands.
    struct HeldOutput {
      bool is_reply = false;
      NodeId to;
      ClientId client = 0;
      proto::Message msg;
    };

    NodeGroup& group;
    NodeId self;
    PhysicalClock clock;
    Worker* worker = nullptr;
    std::unique_ptr<server::ReplicaBase> engine;
    wal::PartitionWal* wal = nullptr;  // owned by Options::wal's manager
    std::vector<HeldOutput> held;

    /// Exactly-once against client retries: a client's latest admitted op
    /// and, once released, its reply (none while the op is in flight).
    struct ClientOp {
      std::uint64_t op_id = 0;
      std::optional<proto::Message> reply;
    };
    std::unordered_map<ClientId, ClientOp> client_ops;
  };

  struct Incoming {
    NodeId from;
    Slot* slot = nullptr;
    proto::Message msg;
  };
  struct Timer {
    Timestamp at = 0;
    Slot* slot = nullptr;
    std::uint64_t id = 0;
    bool operator>(const Timer& o) const { return at > o.at; }
  };

  struct Worker {
    std::uint32_t index = 0;
    std::mutex mu;
    common::Ring<Incoming> inbox;  // MPSC: any thread pushes, owner pops
    // Armed and fired exclusively on this worker's owner thread, as is
    // everything below (no lock).
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
    std::vector<Slot*> slots;
    common::Ring<Incoming> backlog;  // swap-drain scratch (owner thread)
    bool engines_started = false;
    // Set by Slot::send when the batch being drained sent (or held) a
    // message for another DC: the pass then ends with promise_heartbeats().
    bool sent_to_peer_dc = false;
    // This worker's shards of the op-latency histograms. Each worker records
    // only into its own cells, so the cell mutexes are uncontended except
    // during a scrape merge.
    stats::HistogramCell* lat_get = nullptr;
    stats::HistogramCell* lat_put = nullptr;
    stats::HistogramCell* lat_tx = nullptr;
  };

  /// End of a drained batch that sent to a peer DC: every partition of
  /// `w` whose VV[m] is below the newest VV[m] among them promises that
  /// timestamp (ReplicaBase::promise_heartbeat), in the frame that carries
  /// the batch's Replicates. With a WAL, only partitions the group commit
  /// syncs anyway promise — a promise never costs an fdatasync of its own.
  void promise_heartbeats(Worker& w);

  /// Push into the owning worker's inbox and wake it; false (message
  /// untouched) when `admission` and the inbox is at the cap.
  bool push(NodeId from, NodeId to, proto::Message& m, bool admission);

  DcId dc_;
  std::vector<PartitionId> parts_;
  Router& router_;
  Options opt_;
  Rng rng_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> by_part_;  // index: PartitionId
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> local_deliveries_{0};
  std::atomic<std::uint64_t> deduped_requests_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace pocc::rt
