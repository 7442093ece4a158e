#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "runtime/rt_node.hpp"

namespace pocc::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Scatter-gather width of one sendmsg flush: enough to drain a reply
/// burst or a batcher flush in one syscall, small enough to stack-allocate.
constexpr std::size_t kMaxFlushIov = 64;

/// The shard whose loop runs on this thread (null off the loop threads):
/// a wake aimed at it needs no pipe write.
thread_local const void* t_loop_shard = nullptr;

/// The shard and loop wait (TcpTransport::Shard::waits) of this thread's
/// last direct socket write: one per thread per wait, see send.
thread_local const void* t_direct_shard = nullptr;
thread_local std::uint64_t t_direct_wait = 0;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  POCC_ASSERT(flags >= 0);
  POCC_ASSERT(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

// The deployment's single monotonic time base (also what poccd aligns to
// CLOCK_REALTIME via offset_bias_us); only used here for backoff timing.
Timestamp TcpTransport::now_us() { return rt::steady_now_us(); }

TcpTransport::TcpTransport(Callbacks callbacks, Options options)
    : cb_(std::move(callbacks)), opt_(options) {
  const std::uint32_t n = std::max<std::uint32_t>(1, opt_.num_loops);
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    s->loop = std::make_unique<EventLoop>();
    POCC_ASSERT(::pipe(s->wake_pipe) == 0);
    set_nonblocking(s->wake_pipe[0]);
    set_nonblocking(s->wake_pipe[1]);
    s->loop->watch(s->wake_pipe[0], true, false);
    s->backoff_rng = Rng(opt_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    shards_.push_back(std::move(s));
  }
}

TcpTransport::~TcpTransport() {
  stop();
  for (auto& s : shards_) {
    if (s->listen_fd >= 0) ::close(s->listen_fd);
    for (auto& [id, conn] : s->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    for (auto& conn : s->adopted) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    ::close(s->wake_pipe[0]);
    ::close(s->wake_pipe[1]);
  }
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  POCC_ASSERT_MSG(shards_[0]->listen_fd < 0, "listen() called twice");
  // One listening socket per shard, all bound to the same port with
  // SO_REUSEPORT: the kernel spreads incoming connections across the
  // shards' accept queues, so no loop is an accept bottleneck. An
  // ephemeral request (port 0) resolves on the first socket; the rest
  // join that port.
  std::uint16_t bound = port;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    POCC_ASSERT(s.listen_fd >= 0);
    const int one = 1;
    ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (shards_.size() > 1) {
      POCC_ASSERT_MSG(::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                                   sizeof(one)) == 0,
                      "SO_REUSEPORT unavailable for sharded accept");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(bound);
    POCC_ASSERT_MSG(
        ::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0,
        "cannot bind listen socket (port in use?)");
    POCC_ASSERT(::listen(s.listen_fd, 512) == 0);
    socklen_t len = sizeof(addr);
    POCC_ASSERT(::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    set_nonblocking(s.listen_fd);
    s.loop->watch(s.listen_fd, true, false);
    bound = ntohs(addr.sin_port);
  }
  listen_port_ = bound;
  return listen_port_;
}

TcpTransport::Shard* TcpTransport::shard_of(ConnId conn) const {
  const std::uint32_t idx = loop_of(conn);
  if (idx >= shards_.size()) return nullptr;
  return shards_[idx].get();
}

ConnId TcpTransport::connect_peer(std::string host, std::uint16_t port,
                                  std::int32_t loop) {
  // Outbound links get a designated owning loop (peer FIFO links are
  // spread deterministically by the host); -1 assigns round-robin.
  const std::uint32_t idx =
      loop >= 0 && static_cast<std::size_t>(loop) < shards_.size()
          ? static_cast<std::uint32_t>(loop)
          : next_dial_shard_.fetch_add(1, std::memory_order_relaxed) %
                static_cast<std::uint32_t>(shards_.size());
  Shard& s = *shards_[idx];
  std::lock_guard lk(s.mu);
  auto conn = std::make_unique<Conn>();
  conn->id = (static_cast<ConnId>(idx) << kShardShift) | s.next_seq++;
  conn->outbound = true;
  conn->host = std::move(host);
  conn->port = port;
  conn->retry_at = 0;  // dial on the next pass
  const ConnId id = conn->id;
  s.conns.emplace(id, std::move(conn));
  wake(s);
  return id;
}

void TcpTransport::start() {
  POCC_ASSERT(!started_.exchange(true));
  for (auto& s : shards_) {
    s->thread = std::thread([this, shard = s.get()] { run(*shard); });
  }
}

void TcpTransport::stop() {
  for (auto& s : shards_) {
    std::lock_guard lk(s->mu);
    s->stopping = true;  // idempotent: a second stop only re-joins
    wake(*s);
  }
  const bool threaded = started_.load(std::memory_order_relaxed);
  for (auto& s : shards_) {
    if (threaded) {
      if (s->thread.joinable()) s->thread.join();
      continue;
    }
    // Driven: the pass lock waits out a driver that is still inside one.
    std::lock_guard pass_lk(s->pass_mu);
    final_drain(*s);
  }
}

bool TcpTransport::drive(int timeout_ms) {
  POCC_ASSERT_MSG(!started_.load(std::memory_order_relaxed) &&
                      shards_.size() == 1,
                  "drive() needs a one-shard transport that is never started");
  Shard& s = *shards_[0];
  std::unique_lock lk(s.pass_mu, std::defer_lock);
  if (timeout_ms == 0) {
    if (!lk.try_lock()) return false;  // that pass serves this caller too
  } else {
    lk.lock();
  }
  return pass(s, timeout_ms);
}

void TcpTransport::wake(Shard& s) {
  // The loop is awake when it wakes itself: whatever it queued is served
  // before its next wait (enqueues by the pass hook) or right after it
  // (outbox frames), so the flag only turns that wait into a poll.
  if (t_loop_shard == &s) {
    s.self_woken = true;
    return;
  }
  // A driven shard (and a threaded one before start) only needs the byte
  // while a driver is blocked in its wait: any later pass finds the work
  // itself. The caller holds s.mu, which guards blocking_wait.
  if (!started_.load(std::memory_order_relaxed) && !s.blocking_wait) return;
  // One byte per wait is enough: the loop clears wake_pending when it
  // drains the pipe and only then looks for work, so a wake that finds it
  // set is covered by the byte already on its way.
  if (s.wake_pending.exchange(true)) return;
  s.wake_writes.fetch_add(1, std::memory_order_relaxed);
  const char b = 1;
  while (true) {
    const ssize_t n = ::write(s.wake_pipe[1], &b, 1);
    if (n >= 0) return;
    // A signal mid-write must not lose the wakeup; a full pipe means a
    // wake is already pending, which is all a wake means.
    if (errno == EINTR) continue;
    return;
  }
}

void TcpTransport::wake_loop(std::uint32_t loop) {
  if (loop >= shards_.size()) return;
  wake(*shards_[loop]);
}

std::vector<std::thread::native_handle_type>
TcpTransport::loop_thread_handles() {
  std::vector<std::thread::native_handle_type> out;
  for (auto& s : shards_) {
    if (s->thread.joinable()) out.push_back(s->thread.native_handle());
  }
  return out;
}

std::size_t TcpTransport::down_cap() const {
  return std::min(opt_.max_down_buffer_bytes, opt_.max_outbox_bytes);
}

std::size_t TcpTransport::cap_of(const Conn& c) const {
  // While the socket is down the tighter reconnect-buffer cap applies: a
  // long outage must not buffer up to the full backpressure bound.
  return c.up ? opt_.max_outbox_bytes : down_cap();
}

bool TcpTransport::backlogged(ConnId conn) const {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return false;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return false;
  // The same point whether the link is up or down: a link that goes down
  // with its queue just under it still has half the down cap free for what
  // is never shed (Replicates of admitted PUTs, heartbeats, recovery).
  const std::size_t queued = queued_of(*it->second);
  return queued > 0 && queued >= down_cap() / 2;
}

std::size_t TcpTransport::queued_bytes(ConnId conn) const {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return 0;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  return it == sp->conns.end() ? 0 : queued_of(*it->second);
}

bool TcpTransport::send(ConnId conn, std::vector<std::uint8_t> frame) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return false;
  Shard& s = *sp;
  std::lock_guard lk(s.mu);
  auto it = s.conns.find(conn);
  if (it == s.conns.end()) return false;
  Conn& c = *it->second;
  if (!c.outbound && !c.up) return false;
  const std::size_t queued = queued_of(c) + frame.size();
  if (queued > cap_of(c)) {
    if (!c.up && queued <= opt_.max_outbox_bytes) {
      ++s.stats.down_buffer_drops;
    } else {
      ++s.stats.send_overflows;
    }
    return false;
  }
  if (c.chaos != nullptr) {
    const Timestamp now = now_us();
    const ChaosVerdict v = c.chaos->on_frame(frame.size(), now);
    if (v.reset) c.chaos_reset_pending = true;
    ++s.stats.frames_out;
    if (v.duplicate) {
      ++s.stats.frames_out;
      ++s.stats.chaos_duplicates;
    }
    // Once anything is held, everything queues behind it (FIFO).
    if (v.delay_us > 0 || !c.chaos_hold.empty()) {
      ++s.stats.chaos_delayed;
      c.chaos_held_bytes += frame.size() * (v.duplicate ? 2 : 1);
      if (v.duplicate) {
        c.chaos_hold.push_back(Conn::HeldFrame{now + v.delay_us, frame});
      }
      c.chaos_hold.push_back(
          Conn::HeldFrame{now + v.delay_us, std::move(frame)});
      wake(s);
      return true;
    }
    if (v.duplicate) {
      enqueue_frame(c, frame);  // copy: the original goes below
    }
    enqueue_frame(c, std::move(frame));
    wake(s);
    return true;
  }
  const bool idle = c.outbox.empty();
  enqueue_frame(c, std::move(frame));
  ++s.stats.frames_out;
  // A send from a thread that is not this shard's loop writes an idle
  // socket itself (under s.mu, like every write) instead of waking the
  // loop for it — once per thread per loop wait: the rest of a burst from
  // one thread queues behind, and the woken loop drains it in one sendmsg.
  // The owner is woken when the kernel left bytes (it must watch for
  // writable) or the socket failed (only the owner closes).
  if (idle && c.up && t_loop_shard != &s &&
      (t_direct_shard != &s || t_direct_wait != s.waits)) {
    t_direct_shard = &s;
    t_direct_wait = s.waits;
    if (write_outbox(s, c) && c.outbox.empty()) return true;
  }
  wake(s);
  return true;
}

void TcpTransport::enqueue_frame(Conn& c, std::vector<std::uint8_t> frame) {
  // Zero-copy: the caller's encode buffer IS the outbox entry; it returns
  // to the shard arena once the socket has written it.
  c.outbox_bytes += frame.size();
  c.outbox.push_back(std::move(frame));
}

void TcpTransport::recycle_conn(Shard& s, Conn& c) {
  s.arena.release(std::move(c.inbox));
  c.inbox = {};
  while (!c.outbox.empty()) {
    s.arena.release(std::move(c.outbox.front()));
    c.outbox.pop_front();
  }
  c.outbox_bytes = 0;
  c.frame_written = 0;
}

std::vector<std::uint8_t> TcpTransport::acquire_buffer(ConnId conn) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return {};
  std::lock_guard lk(sp->mu);
  bool hit = false;
  std::vector<std::uint8_t> buf = sp->arena.acquire(&hit);
  if (hit) {
    ++sp->stats.arena_hits;
  } else {
    ++sp->stats.arena_misses;
  }
  return buf;
}

void TcpTransport::set_chaos(ConnId conn, std::shared_ptr<ChaosLink> link) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return;
  it->second->chaos = std::move(link);
  wake(*sp);
}

void TcpTransport::set_greeting(ConnId conn, std::vector<std::uint8_t> frame) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return;
  it->second->greeting = std::move(frame);
}

bool TcpTransport::connected(ConnId conn) const {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return false;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  return it != sp->conns.end() && it->second->up;
}

TransportStats TcpTransport::stats() const {
  TransportStats total;
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    total += s->stats;
    total.wake_writes += s->wake_writes.load(std::memory_order_relaxed);
  }
  return total;
}

void TcpTransport::dial(Shard& s, Conn& c, Timestamp now) {
  c.retry_at = 0;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(c.port);
  if (::getaddrinfo(c.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    arm_backoff(s, c, now);
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  POCC_ASSERT(fd >= 0);
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc == 0) {
    c.fd = fd;
    s.map_fd(fd, c.id);
    mark_established(s, c);
    return;
  }
  if (errno == EINPROGRESS) {
    c.fd = fd;
    s.map_fd(fd, c.id);
    c.connecting = true;
    return;
  }
  ::close(fd);
  arm_backoff(s, c, now);
}

void TcpTransport::arm_backoff(Shard& s, Conn& c, Timestamp now) {
  // The ceiling doubles deterministically; the actual retry draws uniformly
  // from [min, ceiling] (full jitter) so a partition heal doesn't trigger a
  // synchronized redial storm across every cut link.
  c.backoff_us = std::clamp<Duration>(
      c.backoff_us == 0 ? opt_.reconnect_backoff_min_us : c.backoff_us * 2,
      opt_.reconnect_backoff_min_us, opt_.reconnect_backoff_max_us);
  const Duration span = c.backoff_us - opt_.reconnect_backoff_min_us;
  const Duration jittered =
      opt_.reconnect_backoff_min_us +
      (span > 0
           ? static_cast<Duration>(
                 s.backoff_rng.uniform(static_cast<std::uint64_t>(span) + 1))
           : 0);
  c.retry_at = now + jittered;
}

void TcpTransport::mark_established(Shard& /*s*/, Conn& c) {
  c.connecting = false;
  c.up = true;
  c.backoff_us = 0;
  if (!c.greeting.empty()) {
    // close_socket rewound frame_written to 0, so the front frame has no
    // partially-sent prefix and the greeting can jump the queue whole.
    POCC_ASSERT(c.frame_written == 0);
    c.outbox_bytes += c.greeting.size();
    c.outbox.push_front(c.greeting);  // copy: re-sent on every reconnect
  }
}

void TcpTransport::close_socket(Shard& s, Conn& c) {
  if (c.fd >= 0) {
    s.loop->unwatch(c.fd);
    s.unmap_fd(c.fd);
    ::close(c.fd);
    c.fd = -1;
  }
  c.connecting = false;
  c.up = false;
  c.announced = false;
  c.inbox.clear();
  // Rewind a partially-written frame to its boundary: the reconnected
  // socket must restart the frame from byte 0, never resume its tail.
  c.outbox_bytes += c.frame_written;
  c.frame_written = 0;
  if (c.outbound) {
    arm_backoff(s, c, now_us());
    ++s.stats.reconnects;
  }
}

void TcpTransport::chaos_pass(Shard& s, Timestamp now,
                              std::vector<ConnId>& went_down) {
  for (auto& [id, cp] : s.conns) {
    Conn& c = *cp;
    if (c.chaos == nullptr) continue;
    const bool was_up = c.up;
    if (c.chaos_reset_pending) {
      c.chaos_reset_pending = false;
      if (c.up || c.connecting) {
        ++s.stats.chaos_resets;
        close_socket(s, c);
      }
    }
    if ((c.up || c.connecting) && c.chaos->blocked(now)) {
      // A partition window cuts the established socket too, not only new
      // dials — the peer sees the link die, exactly like a real outage.
      close_socket(s, c);
    }
    // Release frames whose chaos delay elapsed into the real outbox. They
    // buffer there even while the socket is down (reconnect semantics).
    while (!c.chaos_hold.empty() && c.chaos_hold.front().release_at <= now) {
      std::vector<std::uint8_t> frame = std::move(c.chaos_hold.front().frame);
      c.chaos_hold.pop_front();
      c.chaos_held_bytes -= frame.size();
      enqueue_frame(c, std::move(frame));
    }
    if (was_up && !c.up) went_down.push_back(c.id);
  }
}

void TcpTransport::drain_outbox(Shard& s, Conn& c) {
  if (!write_outbox(s, c)) close_socket(s, c);
}

bool TcpTransport::write_outbox(Shard& s, Conn& c) {
  while (!c.outbox.empty()) {
    // Gather the front frame's unsent tail plus whole queued frames into
    // one sendmsg — a reply burst or a batcher flush leaves the process in
    // a single syscall instead of one send() per contiguity break.
    iovec iov[kMaxFlushIov];
    std::size_t niov = 0;
    for (const auto& f : c.outbox) {
      const std::size_t off = niov == 0 ? c.frame_written : 0;
      iov[niov].iov_base =
          const_cast<std::uint8_t*>(f.data()) + off;  // sendmsg won't write
      iov[niov].iov_len = f.size() - off;
      if (++niov == kMaxFlushIov) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      ++s.stats.sendmsg_calls;
      s.stats.bytes_out += static_cast<std::uint64_t>(w);
      c.outbox_bytes -= static_cast<std::size_t>(w);
      c.frame_written += static_cast<std::size_t>(w);
      // Recycle fully-written frames through the shard arena; a partial
      // frame keeps its cursor for the next writable edge.
      while (!c.outbox.empty() && c.frame_written >= c.outbox.front().size()) {
        c.frame_written -= c.outbox.front().size();
        ++s.stats.sendmsg_frames;
        s.arena.release(std::move(c.outbox.front()));
        c.outbox.pop_front();
      }
      continue;
    }
    // EINTR: a signal landed mid-send — the connection is healthy, retry
    // (tearing it down here was the spurious-reconnect bug the signal
    // storm test pins down).
    if (w < 0 && errno == EINTR) continue;
    return w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void TcpTransport::read_ready(Shard& s, Conn& c) {
  std::uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.inbox.insert(c.inbox.end(), buf, buf + n);
      s.stats.bytes_in += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      continue;
    }
    // EINTR is not EOF: retry instead of closing a healthy connection.
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_socket(s, c);  // orderly EOF or error
    return;
  }
}

void TcpTransport::accept_ready(Shard& s) {
  while (true) {
    const int fd = ::accept(s.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;       // signal: the queue may be non-empty
      if (errno == ECONNABORTED) continue;  // peer gave up; try the next one
      return;  // EAGAIN (queue drained) or a resource error; retried on the
               // next readiness report either way
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = (static_cast<ConnId>(s.index) << kShardShift) | s.next_seq++;
    conn->fd = fd;
    conn->up = true;
    conn->placed = !cb_.place;
    bool hit = false;
    conn->inbox = s.arena.acquire(&hit);  // accept churn reuses capacity
    if (hit) {
      ++s.stats.arena_hits;
    } else {
      ++s.stats.arena_misses;
    }
    ++s.stats.accepts;
    s.map_fd(fd, conn->id);
    s.conns.emplace(conn->id, std::move(conn));
  }
}

void TcpTransport::decode_inbox(Shard& s, Conn& c) {
  // A connection awaiting placement hands its first frame to
  // Callbacks::place; placed on another shard, it stops here with its inbox
  // untouched and is queued in to_place. No frame is delivered before its
  // connection is announced.
  std::size_t off = 0;
  while (c.up && off < c.inbox.size()) {
    proto::DecodeResult res =
        proto::decode_frame(c.inbox.data() + off, c.inbox.size() - off);
    if (res.status == proto::DecodeResult::Status::kOk) {
      if (!c.placed) {
        c.placed = true;
        const std::int32_t target = cb_.place(res.frame);
        if (target >= 0 && static_cast<std::size_t>(target) < shards_.size() &&
            static_cast<std::uint32_t>(target) != s.index) {
          s.to_place.emplace_back(static_cast<std::uint32_t>(target), c.id);
          break;
        }
      }
      if (!c.announced) {
        c.announced = true;
        s.went_up.push_back(c.id);
      }
      ++s.stats.frames_in;
      s.deliveries.push_back(Delivery{c.id, std::move(res.frame)});
      off += res.consumed;
      continue;
    }
    if (res.status == proto::DecodeResult::Status::kNeedMore) break;
    ++s.stats.decode_errors;
    close_socket(s, c);
    break;
  }
  if (off > 0 && c.fd >= 0) {
    c.inbox.erase(c.inbox.begin(),
                  c.inbox.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void TcpTransport::run(Shard& s) {
  t_loop_shard = &s;
  while (pass(s, -1)) {
  }
  final_drain(s);
}

void TcpTransport::final_drain(Shard& s) {
  // Push out what shutdown staged (a host flushes its batchers right before
  // stop()) without blocking — anything the kernel won't take now dies
  // with the process, as before.
  std::lock_guard lk(s.mu);
  for (auto& [id, cp] : s.conns) {
    if (cp->fd >= 0 && cp->up) drain_outbox(s, *cp);
  }
}

bool TcpTransport::pass(Shard& s, int max_wait_ms) {
  int timeout_ms = -1;
  {
    std::lock_guard lk(s.mu);
    if (s.stopping) return false;
    const Timestamp now = now_us();
    Timestamp next_timer = 0;
    for (auto& [id, cp] : s.conns) {
      Conn& c = *cp;
      if (c.fd < 0) {
        if (!c.outbound) continue;
        if (c.chaos != nullptr && c.chaos->blocked(now)) {
          // Partition window: don't redial; recheck shortly.
          c.retry_at = now + 5'000;
        } else if (c.retry_at <= now) {
          dial(s, c, now);
        }
      }
      if (!c.chaos_hold.empty() &&
          (next_timer == 0 || c.chaos_hold.front().release_at < next_timer)) {
        next_timer = c.chaos_hold.front().release_at;
      }
      if (c.fd >= 0) {
        // Interest delta only — EventLoop::watch no-ops when unchanged,
        // so the scan costs one epoll_ctl per actual transition.
        s.loop->watch(c.fd, true, c.connecting || c.outbox_bytes > 0);
      } else if (c.retry_at > 0 &&
                 (next_timer == 0 || c.retry_at < next_timer)) {
        next_timer = c.retry_at;
      }
    }
    if (next_timer > 0) {
      const Timestamp now2 = now_us();
      timeout_ms = next_timer <= now2
                       ? 0
                       : static_cast<int>((next_timer - now2) / 1000 + 1);
    }
    // A dial that completed synchronously still needs its on_connected
    // announcement (made in the post-wait section): don't block for it.
    for (auto& [id, cp] : s.conns) {
      if (cp->up && cp->placed && !cp->announced) {
        timeout_ms = 0;
        break;
      }
    }
    if (max_wait_ms >= 0 && (timeout_ms < 0 || timeout_ms > max_wait_ms)) {
      timeout_ms = max_wait_ms;
    }
    // Set under mu with the interest above: a frame queued before this
    // point already makes the wait return (write interest), one queued
    // after it sees the flag and writes the pipe.
    s.blocking_wait = timeout_ms != 0;
  }

  // NodeGroup pass (outside the shard lock): service the NodeGroup
  // worker this loop owns; the host's next deadline bounds the sleep.
  if (cb_.on_loop_pass) {
    const Timestamp pass_deadline = cb_.on_loop_pass(s.index);
    if (pass_deadline > 0) {
      const Timestamp now2 = now_us();
      const int ms =
          pass_deadline <= now2
              ? 0
              : static_cast<int>((pass_deadline - now2) / 1000 + 1);
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    }
  }
  // Work this thread queued for itself — frames the pass (or the last
  // round of callbacks) sent on this shard — is drained after the wait:
  // poll, don't sleep.
  if (s.self_woken) {
    s.self_woken = false;
    timeout_ms = 0;
  }

  s.loop->wait(timeout_ms, s.events);

  s.went_up.clear();
  s.went_down.clear();
  s.deliveries.clear();
  s.to_erase.clear();
  s.to_place.clear();
  {
    std::lock_guard lk(s.mu);
    s.blocking_wait = false;
    if (s.stopping) return false;
    ++s.waits;
    chaos_pass(s, now_us(), s.went_down);
    bool accept_pending = false;
    for (const EventLoop::Event& ev : s.events) {
      if (ev.fd == s.wake_pipe[0]) {
        char buf[256];
        while (true) {
          const ssize_t n = ::read(s.wake_pipe[0], buf, sizeof(buf));
          if (n > 0) continue;
          if (n < 0 && errno == EINTR) continue;  // drain fully, then stop
          break;  // EAGAIN: pipe empty
        }
        s.wake_pending.store(false);
        continue;
      }
      if (ev.fd == s.listen_fd) {
        // Accept after the connection events: a recycled fd number can
        // then never receive a stale event meant for its predecessor.
        accept_pending = true;
        continue;
      }
      const ConnId cid = s.conn_at_fd(ev.fd);
      if (cid == kInvalidConn) continue;  // closed earlier this pass
      auto it = s.conns.find(cid);
      if (it == s.conns.end()) continue;
      Conn& c = *it->second;
      if (c.fd != ev.fd) continue;
      if (c.connecting && (ev.writable || ev.error)) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0 && !ev.error) {
          mark_established(s, c);
        } else {
          close_socket(s, c);
        }
        continue;
      }
      const bool was_up = c.up;
      if (ev.error && !ev.readable) {
        close_socket(s, c);
      } else {
        if (ev.readable) read_ready(s, c);
        if (c.up && ev.writable) drain_outbox(s, c);
      }

      decode_inbox(s, c);
      // A connection that died unplaced was never announced.
      if (was_up && !c.up && c.placed) s.went_down.push_back(c.id);
    }
    // Hand placed connections over: off this shard's loop, to their
    // target's adoption queue once s.mu is released.
    for (const auto& [target, id] : s.to_place) {
      auto it = s.conns.find(id);
      Conn& c = *it->second;
      s.loop->unwatch(c.fd);
      s.unmap_fd(c.fd);
      ++s.stats.migrations;
      s.leaving.emplace_back(target, std::move(it->second));
      s.conns.erase(it);
    }
    // Adopt connections other shards placed here. Their carried bytes
    // are decoded now: no readable event may ever come for them.
    for (auto& cp : s.adopted) {
      Conn& c = *cp;
      s.map_fd(c.fd, c.id);
      s.conns.emplace(c.id, std::move(cp));
      decode_inbox(s, c);
      if (!c.up) s.went_down.push_back(c.id);
    }
    s.adopted.clear();
    if (accept_pending) accept_ready(s);
    // Optimistic flush: drain every queued outbox now instead of waiting
    // for the next writable event, so write interest only ever means
    // "kernel buffer filled up". This saves one loop pass of latency per
    // reply burst.
    for (auto& [id, cp] : s.conns) {
      Conn& c = *cp;
      if (c.fd < 0 || !c.up || c.outbox_bytes == 0) continue;
      const bool was_up = c.up;
      drain_outbox(s, c);
      if (was_up && !c.up) s.went_down.push_back(c.id);
    }
    // Announce newly established sockets (accepted, connected or
    // reconnected — close_socket resets `announced`) and reap dead
    // inbound connections (the remote owns their recovery).
    for (auto& [id, cp] : s.conns) {
      Conn& c = *cp;
      if (c.up && c.placed && !c.announced) {
        c.announced = true;
        s.went_up.push_back(c.id);
      }
      if (!c.outbound && !c.up) s.to_erase.push_back(id);
    }
    for (const ConnId id : s.to_erase) {
      auto dead = s.conns.find(id);
      if (dead == s.conns.end()) continue;
      recycle_conn(s, *dead->second);
      s.conns.erase(dead);
    }
  }
  // A placed connection gets its one ConnId on its target shard.
  for (auto& [target, cp] : s.leaving) {
    Shard& t = *shards_[target];
    {
      std::lock_guard lk(t.mu);
      cp->id = (static_cast<ConnId>(t.index) << kShardShift) | t.next_seq++;
      t.adopted.push_back(std::move(cp));
    }
    wake(t);
  }
  s.leaving.clear();

  for (const ConnId id : s.went_up) {
    if (cb_.on_connected) cb_.on_connected(id);
  }
  for (Delivery& d : s.deliveries) {
    if (cb_.on_frame) cb_.on_frame(d.conn, std::move(d.frame));
  }
  for (const ConnId id : s.went_down) {
    if (cb_.on_disconnected) cb_.on_disconnected(id);
  }
  return true;
}

// ------------------------------------------------------------ LinkBatcher ---

void LinkBatcher::add(NodeId from, NodeId to, const proto::Message& m) {
  std::lock_guard lk(mu_);
  writer_.add(from, to, m);
  ++stats_.messages;
  if (writer_.count() >= policy_.max_messages ||
      writer_.body_bytes() >= policy_.max_bytes) {
    flush_locked();
  }
}

void LinkBatcher::flush() {
  std::lock_guard lk(mu_);
  if (!writer_.empty()) flush_locked();
}

bool LinkBatcher::staged() const {
  std::lock_guard lk(mu_);
  return !writer_.empty();
}

void LinkBatcher::flush_locked() {
  stats_.protocol_bytes += writer_.stats().protocol_bytes;
  stats_.overhead_bytes +=
      writer_.stats().overhead_bytes + proto::kFrameHeaderBytes;
  // Encode into a recycled shard-arena buffer: the flushed frame's vector
  // returns there once the transport writes it, closing the reuse loop.
  std::vector<std::uint8_t> frame = transport_.acquire_buffer(conn_);
  writer_.flush_to(frame);
  ++stats_.batches;
  // A refusal is a counted transport drop: the host sheds client work at
  // half the cap (TcpTransport::backlogged), so on the lossless FIFO
  // channel of §II-C it is a fault, not flow control.
  transport_.send(conn_, std::move(frame));
}

BatchStats LinkBatcher::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace pocc::net
