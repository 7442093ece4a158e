// Sharded TCP transport for the networked deployment (poccd, pocc_loadgen,
// and the in-process e2e tests).
//
// The transport runs Options::num_loops event-loop shards (default 1 — the
// original single-threaded shape). Each shard owns one net::EventLoop
// (epoll), one wake pipe, one SO_REUSEPORT listening socket, and a disjoint
// set of connections. All of a shard's socket work happens in its passes
// (pass(): dial due links, wait for readiness, read, decode, deliver, flush),
// and there are two ways to run them:
//
//   * threaded — start() gives every shard one loop thread that runs its
//                passes back to back (servers: poccd, TcpNodeHost). A
//                connection's socket is read, watched and closed only by
//                its shard's thread; callbacks run there,
//   * driven   — a transport that is never start()ed has no thread: its
//                callers run one pass at a time through drive() (the client
//                pool, whose sessions drive their own sockets). One caller
//                holds the pass at a time; callbacks run on whichever
//                thread drives it.
//
// Other threads interact through the thread-safe send()/connect_peer(). The
// one exception to "passes touch sockets" is the write side: a send from a
// thread that is not running the pass onto an idle connection writes the
// socket itself, under the shard lock, once per thread per pass (see send);
// the rest of its burst waits for the next pass's single flush.
// Responsibilities:
//
//   * framing      — inbound bytes are cut into frames by proto::decode_frame
//                    and delivered one decoded Frame at a time,
//   * reconnect    — outbound connections dialed with connect_peer() survive
//                    peer restarts: the ConnId names the *link*, the socket
//                    behind it redials with exponential backoff, and frames
//                    sent while down are buffered so the per-link FIFO the
//                    protocol assumes (§II-C) is preserved across blips,
//   * backpressure — each connection's outbound buffer is capped
//                    (max_outbox_bytes, max_down_buffer_bytes while down);
//                    when a peer stops draining, send() drops further frames
//                    and counts each once instead of growing without bound.
//                    The outbox is the ONLY buffer behind a replication link:
//                    backlogged() reports it at half the down cap, up or
//                    down, where a host starts shedding client work, so a
//                    refusal there marks a fault,
//   * placement    — with a Callbacks::place hook, an accepted connection
//                    stays silent until its first frame names the shard it
//                    belongs on, then lives there under the only ConnId the
//                    host ever sees; a host thereby co-locates a client's
//                    socket with the worker owning its partition and runs
//                    socket → decode → engine on one thread.
//
// A ConnId encodes its owning shard in the upper bits, so routing a send
// to the right shard is a shift, not a global map. A decode error on a
// connection is treated as corruption: the connection is closed (and
// redialed if it is an outbound link). Accepted (inbound) connections get
// fresh ConnIds and never redial — the remote owns recovery.
//
// Syscall discipline: every ::sendmsg/::recv/::accept and wake-pipe
// read/write retries on EINTR — a signal landing mid-syscall must never
// tear down a healthy connection (scripts/check_syscalls.sh enforces that
// new raw syscall sites go through audited files like this one).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/event_loop.hpp"
#include "proto/codec.hpp"

namespace pocc::net {

/// Identifier of one transport connection: shard index in the top bits,
/// per-shard sequence below. Outbound ids are stable across reconnects;
/// inbound ids are per accepted socket, on the shard it was placed on.
using ConnId = std::uint64_t;

inline constexpr ConnId kInvalidConn = 0;

struct TransportStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t accepts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t send_overflows = 0;
  /// Frames dropped because a *down* link's reconnect buffer hit its cap
  /// (max_down_buffer_bytes) — a long partition cannot buffer unboundedly.
  std::uint64_t down_buffer_drops = 0;
  /// Accepted connections placed on a shard other than the accepting one.
  std::uint64_t migrations = 0;
  /// Scatter-gather flush accounting: sendmsg syscalls issued and frames
  /// fully flushed through them — frames/call is the coalescing ratio a
  /// reply burst or LinkBatcher flush achieves.
  std::uint64_t sendmsg_calls = 0;
  std::uint64_t sendmsg_frames = 0;
  /// Buffer-arena accounting: acquisitions served from the pool vs fresh
  /// allocations (connection churn at 100k sockets lives or dies on this).
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_misses = 0;
  /// Chaos-injection accounting (zero unless set_chaos() armed a link).
  std::uint64_t chaos_delayed = 0;     // frames held before transmission
  std::uint64_t chaos_duplicates = 0;  // frames transmitted twice
  std::uint64_t chaos_resets = 0;      // connections torn down by chaos
  /// Wake-pipe writes: wakes of a loop from any thread but its own (a
  /// loop's own wakes set a flag instead — see TcpTransport::wake_loop).
  std::uint64_t wake_writes = 0;

  TransportStats& operator+=(const TransportStats& o) {
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    accepts += o.accepts;
    reconnects += o.reconnects;
    decode_errors += o.decode_errors;
    send_overflows += o.send_overflows;
    down_buffer_drops += o.down_buffer_drops;
    migrations += o.migrations;
    sendmsg_calls += o.sendmsg_calls;
    sendmsg_frames += o.sendmsg_frames;
    arena_hits += o.arena_hits;
    arena_misses += o.arena_misses;
    chaos_delayed += o.chaos_delayed;
    chaos_duplicates += o.chaos_duplicates;
    chaos_resets += o.chaos_resets;
    wake_writes += o.wake_writes;
    return *this;
  }
};

/// Per-shard pool of reusable byte buffers: connection inboxes and finished
/// outbox frames return here instead of freeing, and acquire() hands their
/// capacity to the next conn/frame — at 100k-connection churn the allocator
/// otherwise sees one malloc/free pair per frame and per accept.
///
/// Ownership rule: the arena never holds a buffer that is still reachable
/// from a Conn — release() is called exactly where the owning reference
/// dies (frame fully flushed, connection reaped). Guarded by the owning
/// shard's mutex like everything else it is touched with.
class BufferArena {
 public:
  /// Pop a pooled buffer (cleared; capacity retained) or make a fresh one.
  /// `*hit` reports which, for the arena_hits/arena_misses counters.
  [[nodiscard]] std::vector<std::uint8_t> acquire(bool* hit) {
    if (free_.empty()) {
      *hit = false;
      return {};
    }
    *hit = true;
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    pooled_bytes_ -= buf.capacity();
    buf.clear();
    return buf;
  }

  /// Return a dead buffer's capacity to the pool (bounded; oversized or
  /// overflow buffers are simply freed).
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxPooledBuffer ||
        free_.size() >= kMaxPooledBuffers ||
        pooled_bytes_ + buf.capacity() > kMaxPooledBytes) {
      return;  // let the vector free on scope exit
    }
    pooled_bytes_ += buf.capacity();
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  // LIFO: the hottest (cache-warm, grown-to-working-set) buffer is reused
  // first. Caps bound idle memory, not throughput.
  static constexpr std::size_t kMaxPooledBuffers = 4096;
  static constexpr std::size_t kMaxPooledBuffer = 1u << 20;
  static constexpr std::size_t kMaxPooledBytes = 32u << 20;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t pooled_bytes_ = 0;
};

class TcpTransport {
 public:
  struct Callbacks {
    /// One decoded frame arrived on `conn`. Runs on the thread running the
    /// owning shard's pass: keep it short (enqueue and return) unless the
    /// host deliberately drives engine work here (the NodeGroup seam).
    std::function<void(ConnId, proto::Frame)> on_frame;
    /// Outbound link established (first connect or reconnect), or inbound
    /// connection accepted.
    std::function<void(ConnId)> on_connected;
    /// Connection lost. Outbound links will redial; inbound ids are dead.
    std::function<void(ConnId)> on_disconnected;
    /// Fired once per loop iteration on every shard, before the loop
    /// waits and outside the shard lock — the NodeGroup seam: the host
    /// services the worker that owns this loop (timers, inbox drain,
    /// durability), flushes the replication batches of the links this
    /// loop owns, and returns its next deadline (absolute steady µs;
    /// 0 = none), which bounds how long the loop may sleep. Frames the pass
    /// sends on this shard go out right after the wait, which then does not
    /// block.
    std::function<Timestamp(std::uint32_t loop)> on_loop_pass;
    /// Placement of an accepted connection: given its first frame, return
    /// the shard it belongs on (-1 keeps it on the accepting shard). Until
    /// then the connection is neither announced nor delivered; a connection
    /// placed elsewhere moves there with its undelivered bytes and gets its
    /// ConnId there. Runs on the accepting shard's thread under its lock:
    /// it must not call into the transport. Null: connections stay where
    /// they were accepted.
    std::function<std::int32_t(const proto::Frame& first)> place;
  };

  struct Options {
    /// Event-loop shards. 1 keeps the original single-threaded transport;
    /// poccd passes the NodeGroup worker count so loop i drives worker i.
    std::uint32_t num_loops = 1;
    /// Per-connection cap on buffered unsent bytes (backpressure bound).
    std::size_t max_outbox_bytes = 64u << 20;
    /// Tighter cap applied while a link has no established socket: frames
    /// buffered across an outage are bounded, and overflow is dropped with
    /// an accounted counter (stats().down_buffer_drops) instead of letting
    /// a long partition grow the outbox to max_outbox_bytes. Half of it is
    /// the backlogged() point where a host starts shedding client work.
    std::size_t max_down_buffer_bytes = 32u << 20;
    /// Reconnect backoff: the *ceiling* doubles deterministically per
    /// failure, but each retry draws uniformly from [min, ceiling] (full
    /// jitter) so links cut by one partition don't redial in lockstep when
    /// it heals.
    Duration reconnect_backoff_min_us = 20'000;
    Duration reconnect_backoff_max_us = 1'000'000;
    /// Seed of the backoff-jitter Rngs (determinism in tests/campaigns).
    std::uint64_t seed = 0xbac0'ff5eULL;
  };

  TcpTransport(Callbacks callbacks, Options options);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen on `port` (0 = ephemeral), all interfaces — one
  /// SO_REUSEPORT socket per shard, so the kernel load-balances accepts
  /// across the loops. Call before start(). Returns the actually bound
  /// port. Asserts on bind failure.
  std::uint16_t listen(std::uint16_t port);

  /// Register a persistent outbound link (dialed once the loop runs;
  /// redials forever with backoff). `loop` pins the link to a shard
  /// (server-to-server FIFO links get a designated owner); -1 assigns
  /// round-robin. Call before or after start().
  ConnId connect_peer(std::string host, std::uint16_t port,
                      std::int32_t loop = -1);

  /// Frame transmitted first on `conn` every time its socket is established
  /// (initial connect and every reconnect), ahead of any buffered frames —
  /// identity announcements (NodeHello/ClientHello) that must precede
  /// protocol traffic.
  void set_greeting(ConnId conn, std::vector<std::uint8_t> frame);

  /// Arm wire-level fault injection on an outbound link: every frame sent
  /// on `conn` passes through `link` (delay/duplicate/reset verdicts), and
  /// while the link's schedule blocks this direction the socket is torn
  /// down and not redialed (a partition window). Call before traffic flows;
  /// nullptr disarms. Thread-safe.
  void set_chaos(ConnId conn, std::shared_ptr<ChaosLink> link);

  /// Threaded mode: one loop thread per shard runs its passes.
  void start();
  /// Stops the loop threads (threaded) or ends every later drive()
  /// (driven), after a best-effort flush of what is queued.
  void stop();

  /// Driven mode: run one pass on the calling thread — dial due links,
  /// wait for readiness at most `timeout_ms` (0 polls, -1 waits for an
  /// event or the next timer), read, decode, deliver through the callbacks,
  /// flush queued frames. Only for a one-shard transport that is never
  /// start()ed. One thread holds the pass at a time: with timeout_ms 0 a
  /// pass another thread holds is not waited for. False when no pass ran
  /// (held elsewhere, or stop() was called).
  bool drive(int timeout_ms);

  /// Queue one already-encoded frame. Thread-safe. Returns false when the
  /// connection is unknown/dead-inbound or its queue is over the cap that
  /// applies now: the frame is dropped and counted once, in
  /// stats().down_buffer_drops while the link is down, else in
  /// stats().send_overflows.
  bool send(ConnId conn, std::vector<std::uint8_t> frame);

  /// True while `conn`'s queued bytes (outbox plus chaos-held) are at least
  /// half the down cap (max_down_buffer_bytes, at most max_outbox_bytes),
  /// whether the link is up or down. The host's admission control sheds
  /// client work on it, so a slow or absent peer pushes back before send()
  /// has to refuse anything, and a link that drops with its queue below
  /// that point keeps half the down cap free.
  [[nodiscard]] bool backlogged(ConnId conn) const;

  /// Bytes queued on `conn` and not yet written (outbox plus chaos-held).
  [[nodiscard]] std::size_t queued_bytes(ConnId conn) const;

  /// Pop a recycled encode buffer (empty, capacity retained) from the arena
  /// of `conn`'s shard — the allocation-free counterpart of send(): frames
  /// the transport finishes writing park their buffers there, and encoding
  /// the next frame into one closes the loop. Thread-safe; falls back to a
  /// fresh vector for unknown conns. Handing the buffer back via send() is
  /// optional (it is an ordinary vector).
  [[nodiscard]] std::vector<std::uint8_t> acquire_buffer(ConnId conn);

  /// True when the connection currently has an established socket.
  [[nodiscard]] bool connected(ConnId conn) const;

  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }
  /// Aggregated over every shard.
  [[nodiscard]] TransportStats stats() const;

  [[nodiscard]] std::uint32_t num_loops() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shard owning `conn` (encoded in the id).
  [[nodiscard]] static std::uint32_t loop_of(ConnId conn) {
    return static_cast<std::uint32_t>(conn >> kShardShift);
  }
  /// Interrupt shard `loop`'s wait (the NodeGroup's enqueue wake). Called
  /// on that loop's own thread it writes no pipe: the loop is awake, and
  /// its next wait only polls. From other threads at most one pipe write
  /// is outstanding per wait (stats().wake_writes counts the pipe writes).
  /// A driven transport's pipe is written only while a driver is blocked
  /// in its wait.
  void wake_loop(std::uint32_t loop);
  /// Native handles of the running loop threads (signal-storm tests aim
  /// pthread_kill at them). Valid between start() and stop(); empty for a
  /// driven transport.
  [[nodiscard]] std::vector<std::thread::native_handle_type>
  loop_thread_handles();

 private:
  static constexpr unsigned kShardShift = 48;

  struct Conn {
    ConnId id = kInvalidConn;
    int fd = -1;
    bool outbound = false;       // redial on loss
    bool connecting = false;     // non-blocking connect in flight
    bool up = false;             // socket established
    bool announced = false;      // on_connected delivered for this socket
    bool placed = true;          // false: accepted, awaiting its first frame
    std::string host;            // outbound only
    std::uint16_t port = 0;      // outbound only
    Timestamp retry_at = 0;      // next dial attempt (steady us)
    Duration backoff_us = 0;
    std::vector<std::uint8_t> inbox;  // undecoded inbound bytes
    // Outbox as a deque of whole frames, flushed with one scatter-gather
    // sendmsg per burst: frames move in from send() without a copy and
    // their buffers recycle through the shard arena once written. A
    // disconnect mid-frame resets frame_written to 0 so the reconnected
    // socket restarts the front frame from byte 0, never resumes its tail
    // (which would garble the peer's framing).
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t outbox_bytes = 0;   // unsent bytes across all frames
    std::size_t frame_written = 0;  // bytes of outbox.front() already sent
    std::vector<std::uint8_t> greeting;  // sent first on every establish

    // --- chaos injection (null on unarmed links) ---
    std::shared_ptr<ChaosLink> chaos;
    struct HeldFrame {
      Timestamp release_at = 0;
      std::vector<std::uint8_t> frame;
    };
    /// Frames the chaos link is holding back; released into the outbox in
    /// FIFO order when their delay elapses (ChaosLink clamps release times
    /// monotone, so the front is always the earliest).
    std::deque<HeldFrame> chaos_hold;
    std::size_t chaos_held_bytes = 0;  // counted against the outbox caps
    bool chaos_reset_pending = false;  // tear down on the next loop pass
  };

  /// A decoded frame collected under the shard lock, delivered after it.
  struct Delivery {
    ConnId conn;
    proto::Frame frame;
  };

  /// One event-loop shard: thread, readiness set, wake pipe, listener and
  /// the connections it owns. A shard's conns/by_fd/stats are guarded by
  /// its mu; the thread running its pass is the only closer of its sockets.
  struct Shard {
    std::uint32_t index = 0;
    std::unique_ptr<EventLoop> loop;
    int wake_pipe[2] = {-1, -1};
    int listen_fd = -1;
    mutable std::mutex mu;
    std::unordered_map<ConnId, std::unique_ptr<Conn>> conns;
    /// fd → owning conn for live sockets: flat and fd-indexed (lazily grown
    /// to the highest fd seen) so the per-event lookup on the wait path is
    /// a load, not a hash — sized-for-100k-fds bookkeeping.
    std::vector<ConnId> by_fd;
    BufferArena arena;
    std::uint64_t next_seq = 1;

    void map_fd(int fd, ConnId id) {
      const auto idx = static_cast<std::size_t>(fd);
      if (idx >= by_fd.size()) {
        by_fd.resize(std::max(idx + 1, by_fd.size() * 2), kInvalidConn);
      }
      by_fd[idx] = id;
    }
    void unmap_fd(int fd) {
      const auto idx = static_cast<std::size_t>(fd);
      if (idx < by_fd.size()) by_fd[idx] = kInvalidConn;
    }
    [[nodiscard]] ConnId conn_at_fd(int fd) const {
      const auto idx = static_cast<std::size_t>(fd);
      return fd >= 0 && idx < by_fd.size() ? by_fd[idx] : kInvalidConn;
    }
    Rng backoff_rng{0};
    TransportStats stats;
    bool stopping = false;
    /// Connections another shard placed here, adopted after this shard's
    /// next wait (guarded by mu).
    std::vector<std::unique_ptr<Conn>> adopted;
    /// Set by a wake from this shard's own thread, which needs no pipe
    /// write: the next wait polls instead of blocking. Loop-thread only.
    bool self_woken = false;
    /// A wake byte is in the pipe (or being written) and the loop has not
    /// drained it yet: further cross-thread wakes skip the write. Cleared
    /// under mu when the loop drains the pipe, before it looks for work.
    std::atomic<bool> wake_pending{false};
    /// Loop waits completed (guarded by mu): bounds direct socket writes
    /// from other threads to one per thread per wait.
    std::uint64_t waits = 0;
    /// Pipe writes into wake_pipe (TransportStats::wake_writes).
    std::atomic<std::uint64_t> wake_writes{0};
    /// Driven mode: a driver is in (or entering) this shard's wait with a
    /// non-zero timeout, so a wake must write the pipe (guarded by mu).
    bool blocking_wait = false;
    /// Held by the thread running a driven shard's pass.
    std::mutex pass_mu;
    std::thread thread;

    // Per-pass scratch: touched only by the thread running the pass.
    // Deferred callback work is collected under mu and invoked outside it,
    // so handlers may call back into send()/connect_peer().
    std::vector<EventLoop::Event> events;
    std::vector<ConnId> went_up;
    std::vector<ConnId> went_down;
    std::vector<Delivery> deliveries;
    std::vector<ConnId> to_erase;
    /// Accepted connections placed on another shard: (target, conn).
    std::vector<std::pair<std::uint32_t, ConnId>> to_place;
    std::vector<std::pair<std::uint32_t, std::unique_ptr<Conn>>> leaving;
  };

  /// Loop-thread body: passes until stop(), then the final flush.
  void run(Shard& s);
  /// One loop iteration of `s`, waiting at most `max_wait_ms` (-1: up to
  /// the next timer). False once the shard is stopping.
  bool pass(Shard& s, int max_wait_ms);
  /// Cut a connection's inbox into decoded frames (under s.mu).
  void decode_inbox(Shard& s, Conn& c);
  /// Best-effort flush of every queued outbox at shutdown (never blocks).
  void final_drain(Shard& s);
  void wake(Shard& s);
  void dial(Shard& s, Conn& c, Timestamp now);
  void mark_established(Shard& s, Conn& c);
  void close_socket(Shard& s, Conn& c);
  /// Append one framed message to the outbox (no copy: the frame buffer
  /// itself becomes the outbox entry).
  static void enqueue_frame(Conn& c, std::vector<std::uint8_t> frame);
  /// Return a dead connection's buffers to the shard arena (call right
  /// before the Conn is erased).
  static void recycle_conn(Shard& s, Conn& c);
  /// Schedule the next dial attempt with full-jitter backoff.
  void arm_backoff(Shard& s, Conn& c, Timestamp now);
  /// The reconnect-buffer cap: max_down_buffer_bytes, at most
  /// max_outbox_bytes.
  [[nodiscard]] std::size_t down_cap() const;
  /// The cap on `c`'s queued bytes that applies now (down_cap() while the
  /// socket is down).
  [[nodiscard]] std::size_t cap_of(const Conn& c) const;
  [[nodiscard]] static std::size_t queued_of(const Conn& c) {
    return c.outbox_bytes + c.chaos_held_bytes;
  }
  /// Chaos pass of one loop iteration: apply pending resets, enforce
  /// partition windows, release due held frames. Collects lost links.
  void chaos_pass(Shard& s, Timestamp now, std::vector<ConnId>& went_down);
  /// Write as much of the outbox as the socket takes; false when the
  /// socket failed (the caller decides whether it may close it).
  bool write_outbox(Shard& s, Conn& c);
  /// write_outbox on the owning loop, closing the socket on failure.
  void drain_outbox(Shard& s, Conn& c);
  void read_ready(Shard& s, Conn& c);
  void accept_ready(Shard& s);
  [[nodiscard]] Shard* shard_of(ConnId conn) const;
  [[nodiscard]] static Timestamp now_us();

  Callbacks cb_;
  Options opt_;

  std::uint16_t listen_port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> next_dial_shard_{0};
  std::atomic<bool> started_{false};
};

/// Coalescing flush policy of one peer link: a staged batch is flushed as
/// soon as it holds max_messages messages or max_bytes of staged body,
/// whichever comes first; whatever is still staged when the event-loop
/// pass that staged it ends goes out then (the host flushes each link at
/// the end of its owning loop's passes, and a pass that staged into
/// another loop's link wakes that loop). The pass is the batching window:
/// a loaded pass drains many requests and their Replicates share a frame,
/// while a lone PUT on a quiet link leaves at once instead of waiting on a
/// timer.
struct BatchPolicy {
  std::size_t max_messages = 64;
  std::size_t max_bytes = 48u << 10;
};

/// Accounting of one link's batching (aggregated into poccd exit stats).
struct BatchStats {
  std::uint64_t messages = 0;
  std::uint64_t batches = 0;
  std::uint64_t protocol_bytes = 0;  // §V-charged bytes inside batches
  std::uint64_t overhead_bytes = 0;  // envelopes + batch headers + prefixes

  BatchStats& operator+=(const BatchStats& o) {
    messages += o.messages;
    batches += o.batches;
    protocol_bytes += o.protocol_bytes;
    overhead_bytes += o.overhead_bytes;
    return *this;
  }
};

/// Per-link coalescer: worker threads add() routed server-to-server
/// messages (encoded immediately into the staged frame — no copy at flush
/// time); the staged batch leaves as ONE Batch wire frame when a size
/// threshold trips or the host flushes at the end of a pass of the link's
/// owning loop. Thread-safe. FIFO holds
/// end to end: adds are serialized by the batcher mutex, flushed frames
/// enter the transport outbox in flush order, and the transport preserves
/// frame order across reconnects (buffered while a link is down). The
/// batcher keeps no queue of its own: a frame the transport refuses is
/// dropped and counted there, once.
class LinkBatcher {
 public:
  LinkBatcher(TcpTransport& transport, ConnId conn, BatchPolicy policy)
      : transport_(transport), conn_(conn), policy_(policy) {}

  LinkBatcher(const LinkBatcher&) = delete;
  LinkBatcher& operator=(const LinkBatcher&) = delete;

  /// Stage one message; flushes inline when a size threshold trips.
  void add(NodeId from, NodeId to, const proto::Message& m);

  /// Hand whatever is staged to the transport as one Batch frame. Called
  /// at the end of every pass of the link's owning loop and at shutdown.
  void flush();

  /// True while messages are staged and not yet flushed: a pass of another
  /// loop wakes the owner for them.
  [[nodiscard]] bool staged() const;

  [[nodiscard]] BatchStats stats() const;

 private:
  void flush_locked();

  TcpTransport& transport_;
  ConnId conn_;
  BatchPolicy policy_;
  mutable std::mutex mu_;
  proto::BatchWriter writer_;
  BatchStats stats_;
};

}  // namespace pocc::net
