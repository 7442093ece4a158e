// Client-side endpoint of the TCP deployment: one pool per (process, data
// center) holding one connection per server worker of that DC — every
// partition a poccd worker hosts shares that worker's socket, placed by the
// same rule the server pins its engines by (runtime/placement.hpp) — and
// demuxing replies to sessions by client id. Requests for all the
// partitions of one worker can thereby share a sendmsg, and so can their
// replies. Used by pocc_loadgen and the e2e tests.
//
// A session drives the protocol through client/client_engine.hpp (requests
// go to the partition owning the key, RO-TXs to the collocated partition-0
// coordinator) and records every operation into a checker::SessionHistory,
// so a finished run can be replayed through the HistoryChecker
// (checker/client_history.hpp) to verify the deployment end to end.
//
// The pool has no thread of its own: its sessions drive its sockets. The
// pool's transport runs in driven mode (net/tcp_transport.hpp), and every
// pump() of a session with an op in flight runs at most one non-blocking
// transport pass per driver pass — the first pump after any pass reads,
// decodes and delivers every reply that has arrived and flushes the frames
// queued since, the later ones only check their own mailbox. A pipelined
// driver thread thereby reads its replies itself, with no thread hop.
// Blocking calls share the sockets leader/follower: one waiting session
// (the leader) blocks in the transport's wait up to its next instant and
// delivers whatever arrives; the others sleep on their own mailbox. A
// leader that leaves hands the pass to one waiting session by waking it,
// so no follower depends on a timer to take over.
//
// Client ids must be unique across the WHOLE deployment (all loadgen
// processes), and each session must be driven by a single thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/client_history.hpp"
#include "client/client_engine.hpp"
#include "common/rng.hpp"
#include "net/cluster_config.hpp"
#include "net/tcp_transport.hpp"

namespace pocc::net {

class TcpClientPool;

/// Client-side fault tolerance knobs. Disabled by default: an op makes one
/// attempt and its timeout is simply the reply wait bound (the pre-chaos
/// behavior). Enabled, the op's timeout becomes a DEADLINE inside which the
/// session retries the SAME op_id — with per-attempt timeouts, capped
/// exponential backoff with full jitter, Overloaded-aware pacing, a
/// per-replica circuit breaker, and failover to the sibling connection of
/// the same DC. Retries are idempotent end to end: the server partition
/// that admitted the op absorbs copies of its op_id, and the session
/// records the request and (at most one) reply into its history exactly
/// once.
struct ClientResilience {
  bool enabled = false;
  /// One attempt waits at most this long before resending.
  Duration attempt_timeout_us = 300'000;
  /// Backoff between attempts: full jitter over [min, ceiling], the
  /// ceiling doubling per attempt up to max.
  Duration backoff_min_us = 5'000;
  Duration backoff_max_us = 200'000;
  /// Consecutive attempt failures on one replica connection that open its
  /// breaker (further ops prefer the sibling until the cooldown passes).
  std::uint32_t breaker_failures = 4;
  Duration breaker_open_us = 500'000;
};

/// Per-session (and pool-aggregated) resilience accounting.
struct ClientResilienceStats {
  std::uint64_t timeouts = 0;            // attempts that hit their timeout
  std::uint64_t retries = 0;             // resends of an op_id
  std::uint64_t failovers = 0;           // switches to the sibling replica
  std::uint64_t overloaded = 0;          // Overloaded replies received
  std::uint64_t breaker_opens = 0;
  std::uint64_t deadline_exhausted = 0;  // ops that failed their deadline

  ClientResilienceStats& operator+=(const ClientResilienceStats& o) {
    timeouts += o.timeouts;
    retries += o.retries;
    failovers += o.failovers;
    overloaded += o.overloaded;
    breaker_opens += o.breaker_opens;
    deadline_exhausted += o.deadline_exhausted;
    return *this;
  }
};

/// How a pool's blocking sessions shared its sockets: waits that ended with
/// the pass handed over, and waits that ended on their own timer.
struct ClientDriveStats {
  std::uint64_t handoffs = 0;        // a leaving leader woke this waiter
  std::uint64_t timer_expiries = 0;  // a waiter's own instant passed first
};

/// Client session over TCP (sticky to the pool's DC): blocking calls, and
/// the pipelined start_*/pump/finish_* API they are built on.
class TcpSession {
 public:
  // Every result says how the op ended: `ok` (answered), `session_closed`,
  // or `overloaded` — the server refused it without running it and asked
  // for `retry_after_us` of quiet; without resilience the session then
  // holds its next op back that long. `blocked_us` is the server's park
  // time (for an RO-TX, its longest slice wait).
  struct GetResult {
    bool ok = false;
    bool session_closed = false;
    bool overloaded = false;
    Duration retry_after_us = 0;
    bool found = false;
    std::string value;
    Timestamp ut = 0;
    DcId sr = 0;
    Duration blocked_us = 0;
  };
  struct PutResult {
    bool ok = false;
    bool session_closed = false;
    bool overloaded = false;
    Duration retry_after_us = 0;
    Timestamp ut = 0;
    Duration blocked_us = 0;
  };
  struct TxResult {
    bool ok = false;
    bool session_closed = false;
    bool overloaded = false;
    Duration retry_after_us = 0;
    std::vector<proto::ReadItem> items;
    Duration blocked_us = 0;
  };

  // --- Blocking API: start_*(), wait until pump() returns true, finish_*().
  // Must not be called while a pipelined operation is in flight.
  GetResult get(const std::string& key, Duration timeout_us = 10'000'000);
  GetResult get_id(KeyId key, Duration timeout_us = 10'000'000);
  PutResult put(const std::string& key, const std::string& value,
                Duration timeout_us = 10'000'000);
  PutResult put_id(KeyId key, std::string value,
                   Duration timeout_us = 10'000'000);
  TxResult ro_tx(const std::vector<std::string>& keys,
                 Duration timeout_us = 10'000'000);
  TxResult ro_tx_ids(std::vector<KeyId> keys,
                     Duration timeout_us = 10'000'000);

  // --- Pipelined (non-blocking) operation API --------------------------
  //
  // One operation in flight per session — the session stays SERIAL, which
  // is what keeps its causal guarantees (read-your-writes, monotonic
  // reads) and its checker history sound. Pipelining arises one level up:
  // a driver thread interleaves MANY sessions over the pool's shared
  // per-worker connections, so each connection carries several
  // outstanding ops (distinct sessions) at once.
  //
  // Sequence: start_*() once, then pump() until it returns true, then the
  // matching finish_*(). pump() never blocks; it runs the session's
  // deadline/retry/backoff/breaker machinery (including the non-resilient
  // single-attempt mode) and, first, the pool's transport (one pass per
  // driver pass, see the file comment). The driving thread must be the
  // session's only one.

  /// False when an operation is already in flight.
  bool start_get(const std::string& key, Duration timeout_us = 10'000'000);
  bool start_get_id(KeyId key, Duration timeout_us = 10'000'000);
  bool start_put(const std::string& key, const std::string& value,
                 Duration timeout_us = 10'000'000);
  bool start_put_id(KeyId key, std::string value,
                    Duration timeout_us = 10'000'000);
  bool start_ro_tx(const std::vector<std::string>& keys,
                   Duration timeout_us = 10'000'000);
  bool start_ro_tx_ids(std::vector<KeyId> keys,
                       Duration timeout_us = 10'000'000);

  /// Advance the in-flight operation without blocking: the pool's sockets
  /// first, then the op. True when there is nothing left to drive (op
  /// completed or none in flight).
  bool pump();

  /// True while a started operation has not been finish_*()ed yet.
  [[nodiscard]] bool op_pending() const {
    return async_.kind != OpKind::kNone;
  }

  /// Collect the completed operation's result (asserts pump() returned
  /// true for an op of the matching kind) and make the session idle.
  GetResult finish_get();
  PutResult finish_put();
  TxResult finish_tx();

  [[nodiscard]] ClientId id() const { return engine_.id(); }
  [[nodiscard]] bool pessimistic() const { return engine_.pessimistic(); }

  /// The recorded history (valid while the session is not mid-operation).
  [[nodiscard]] const checker::SessionHistory& history() const {
    return history_;
  }

  /// Resilience accounting of this session (stable between operations).
  [[nodiscard]] const ClientResilienceStats& resilience_stats() const {
    return rstats_;
  }

 private:
  friend class TcpClientPool;
  TcpSession(ClientId id, DcId dc, TcpClientPool& pool);

  void deliver(proto::Message m);
  /// Block until pump() reports the in-flight op done: each wait is one
  /// TcpClientPool::await up to the op's next attempt, backoff or deadline
  /// instant.
  void block_until_done();
  void record_session_closed();

  // The operation state machine pump() drives (one instance; sessions are
  // serial).
  enum class OpKind : std::uint8_t { kNone, kGet, kPut, kTx };
  struct AsyncOp {
    OpKind kind = OpKind::kNone;
    bool done = false;
    PartitionId part = 0;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point attempt_deadline{};
    std::chrono::steady_clock::time_point backoff_until{};
    bool in_backoff = false;
    bool sent = false;   // an attempt is outstanding
    bool first = true;   // no attempt made yet (retry accounting)
    Duration ceiling = 0;
    proto::GetReq get_req;
    proto::PutReq put_req;
    proto::RoTxReq tx_req;
    GetResult get_res;
    PutResult put_res;
    TxResult tx_res;
  };
  /// Non-blocking reply check: extracts the matching reply if delivered,
  /// flags an Overloaded for the op or a SessionClosed signal.
  template <typename M>
  std::optional<M> poll_reply(std::uint64_t op_id, bool* overloaded,
                              Duration* retry_after_us, bool* closed);
  void async_begin(OpKind kind, PartitionId part, Duration timeout_us);
  bool async_send_attempt();
  void async_schedule_backoff(Duration floor_us);

  client::ClientEngine engine_;
  TcpClientPool& pool_;
  checker::SessionHistory history_;
  std::uint64_t op_seq_ = 0;

  // Resilience state: the session is single-threaded, no locks needed.
  ClientResilience res_;
  ClientResilienceStats rstats_;
  Rng retry_rng_;
  unsigned replica_ = 0;  // sticky preferred connection (0 or 1)
  std::array<std::uint32_t, 2> consec_fail_{};
  std::array<std::chrono::steady_clock::time_point, 2> breaker_open_until_{};
  AsyncOp async_;
  /// The next op's first attempt waits until here: an Overloaded reply's
  /// retry_after_us, honored across ops when resilience is off.
  std::chrono::steady_clock::time_point not_before_{};

  /// The pool's poll generation at this session's last pump.
  std::uint64_t seen_gen_ = 0;

  // Mailbox, filled by whichever thread runs the pool's pass.
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<proto::Message> reply_;
  bool closed_signal_ = false;
  /// Set (under the pool's lead_mu_ too) when a leaving leader hands this
  /// waiting session the pass.
  bool promoted_ = false;
};

class TcpClientPool {
 public:
  /// `layout` gives the topology; `addresses` the (possibly ephemeral-port)
  /// node addresses to dial — defaults to layout.nodes.
  TcpClientPool(ClusterLayout layout, DcId dc);
  TcpClientPool(ClusterLayout layout, DcId dc,
                std::vector<NodeAddress> addresses);
  ~TcpClientPool();

  TcpClientPool(const TcpClientPool&) = delete;
  TcpClientPool& operator=(const TcpClientPool&) = delete;

  void start();
  void stop();

  /// Block until every connection() is up (false = timed out), driving
  /// the dials on the calling thread.
  bool wait_connected(Duration timeout_us);

  /// Resilience policy copied into every session opened AFTER this call.
  /// When enabled, start() also dials a sibling (failover) connection per
  /// server worker.
  void set_resilience(const ClientResilience& r) { resilience_ = r; }

  /// Open a session. `id` must be unique across the whole deployment.
  TcpSession& connect(ClientId id);

  /// Histories of every session opened on this pool (call after the driving
  /// threads finished).
  [[nodiscard]] std::vector<checker::SessionHistory> histories() const;

  [[nodiscard]] DcId dc() const { return dc_; }
  [[nodiscard]] const ClusterLayout& layout() const { return layout_; }
  [[nodiscard]] TransportStats transport_stats() const {
    return transport_.stats();
  }
  /// Sum over every session (call when the driving threads are quiescent).
  [[nodiscard]] ClientResilienceStats resilience_stats() const;
  [[nodiscard]] ClientDriveStats drive_stats() const;

  /// Chaos hooks (campaign/tests): the transport and the connection ids,
  /// so callers can arm ChaosLinks on client links. conn_of is the
  /// connection carrying `part` (shared by the partitions of one server
  /// worker); connections() lists each dialed connection once, primary
  /// and sibling, in partition order.
  TcpTransport& transport() { return transport_; }
  [[nodiscard]] ConnId conn_of(PartitionId part, unsigned replica = 0) const;
  [[nodiscard]] std::vector<ConnId> connections() const;

 private:
  friend class TcpSession;
  using Clock = std::chrono::steady_clock;
  void on_frame(ConnId conn, proto::Frame frame);
  /// One transport pass (see TcpTransport::drive); advances the poll
  /// generation when it ran.
  bool drive(int timeout_ms);
  /// Non-blocking pass unless one already ran since `*seen_gen` (the
  /// caller's last poll) — or is running now.
  void poll(std::uint64_t* seen_gen);
  /// One wait of blocking session `s` until `until`: as the leader, a pass
  /// blocked in the transport's wait; as a follower, a wait on its mailbox
  /// that a reply, a hand-off or `until` ends.
  void await(TcpSession& s, Clock::time_point until);
  /// Hand the pass on to the oldest waiter if `s` leads.
  void release_lead(TcpSession& s);
  /// False when the transport refused the frame (link down / over cap).
  bool send_to_partition(PartitionId part, const proto::Message& m,
                         unsigned replica = 0);
  [[nodiscard]] PartitionId partition_of(KeyId key) const;
  /// The lowest partition hosted by `part`'s server worker — the one its
  /// shared connection is dialed and greeted for. A partition the layout
  /// names no process for is its own.
  [[nodiscard]] PartitionId worker_lead(PartitionId part) const;

  ClusterLayout layout_;
  DcId dc_;
  std::vector<NodeAddress> addresses_;
  ClientResilience resilience_;
  TcpTransport transport_;
  /// [replica 0] primary and [replica 1] sibling connection per partition,
  /// the partitions of one server worker holding the same ids; the sibling
  /// is only dialed when resilience is enabled (kInvalidConn otherwise —
  /// sends on it fail fast and the session falls back).
  std::array<std::vector<ConnId>, 2> conn_by_part_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TcpSession>> sessions_;
  std::unordered_map<ClientId, TcpSession*> session_index_;
  bool started_ = false;

  /// Transport passes run so far.
  std::atomic<std::uint64_t> poll_gen_{0};
  // Leader/follower state of the blocking sessions (lock order: lead_mu_,
  // then a session's mu_).
  mutable std::mutex lead_mu_;
  TcpSession* leader_ = nullptr;
  std::deque<TcpSession*> waiters_;
  ClientDriveStats drive_stats_;
};

}  // namespace pocc::net
