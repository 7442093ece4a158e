#include "net/tcp_client.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "store/key_space.hpp"

namespace pocc::net {

// ---------------------------------------------------------- TcpSession ----

TcpSession::TcpSession(ClientId id, DcId dc, TcpClientPool& pool)
    : engine_(id, dc, pool.layout().topology.num_dcs,
              /*snapshot_rdv=*/pool.layout().system == SystemKind::kCure),
      pool_(pool),
      res_(pool.resilience_),
      retry_rng_(0xc11e47ba0cf0ffULL ^ id) {
  history_.client = id;
  history_.dc = dc;
  history_.snapshot_rdv = pool.layout().system == SystemKind::kCure;
}

void TcpSession::deliver(proto::Message m) {
  {
    std::lock_guard lk(mu_);
    if (std::holds_alternative<proto::SessionClosed>(m)) {
      closed_signal_ = true;
    } else {
      reply_ = std::move(m);
    }
  }
  cv_.notify_all();
}

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's -Wmaybe-uninitialized misfires on the variant move loop inside
// vector reallocation when this function is fully inlined at -O2/-O3; the
// pushed value is a freshly constructed alternative.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void TcpSession::record_session_closed() {
  // §III-B client library behaviour, mirroring SimClient.
  {
    std::lock_guard lk(mu_);
    closed_signal_ = false;
    reply_.reset();
  }
  engine_.reinitialize_pessimistic();
  history_.events.push_back(checker::SessionReset{});
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void TcpSession::block_until_done() {
  while (!pump()) {
    auto until = async_.deadline;
    if (async_.in_backoff) {
      until = std::min(until, async_.backoff_until);
    } else if (async_.sent) {
      until = std::min(until, async_.attempt_deadline);
    }
    std::unique_lock lk(mu_);
    cv_.wait_until(lk, until,
                   [this] { return reply_.has_value() || closed_signal_; });
  }
}

TcpSession::GetResult TcpSession::get(const std::string& key,
                                      Duration timeout_us) {
  return get_id(store::intern_key(key), timeout_us);
}

TcpSession::GetResult TcpSession::get_id(KeyId key, Duration timeout_us) {
  const bool started = start_get_id(key, timeout_us);
  POCC_ASSERT_MSG(started, "blocking call while a pipelined op is in flight");
  block_until_done();
  return finish_get();
}

TcpSession::PutResult TcpSession::put(const std::string& key,
                                      const std::string& value,
                                      Duration timeout_us) {
  return put_id(store::intern_key(key), value, timeout_us);
}

TcpSession::PutResult TcpSession::put_id(KeyId key, std::string value,
                                         Duration timeout_us) {
  const bool started = start_put_id(key, std::move(value), timeout_us);
  POCC_ASSERT_MSG(started, "blocking call while a pipelined op is in flight");
  block_until_done();
  return finish_put();
}

TcpSession::TxResult TcpSession::ro_tx(const std::vector<std::string>& keys,
                                       Duration timeout_us) {
  std::vector<KeyId> ids;
  ids.reserve(keys.size());
  for (const std::string& k : keys) ids.push_back(store::intern_key(k));
  return ro_tx_ids(std::move(ids), timeout_us);
}

TcpSession::TxResult TcpSession::ro_tx_ids(std::vector<KeyId> keys,
                                           Duration timeout_us) {
  const bool started = start_ro_tx_ids(std::move(keys), timeout_us);
  POCC_ASSERT_MSG(started, "blocking call while a pipelined op is in flight");
  block_until_done();
  return finish_tx();
}

// ------------------------------------------- TcpSession (pipelined API) ----

template <typename M>
std::optional<M> TcpSession::poll_reply(std::uint64_t op_id, bool* overloaded,
                                        Duration* retry_after_us,
                                        bool* closed) {
  std::lock_guard lk(mu_);
  if (closed_signal_) {
    *closed = true;
    return std::nullopt;
  }
  if (!reply_.has_value()) return std::nullopt;
  if (const M* m = std::get_if<M>(&*reply_);
      m != nullptr && m->op_id == op_id && m->client == id()) {
    M out = std::move(*std::get_if<M>(&*reply_));
    reply_.reset();
    return out;
  }
  if (const auto* ov = std::get_if<proto::Overloaded>(&*reply_);
      ov != nullptr && ov->op_id == op_id) {
    // The refusal ends this attempt (the server did not run the op) and
    // its hint paces the retry.
    *overloaded = true;
    *retry_after_us = ov->retry_after_us;
  }
  reply_.reset();  // stale answer to an abandoned operation
  return std::nullopt;
}

void TcpSession::async_begin(OpKind kind, PartitionId part,
                             Duration timeout_us) {
  async_.kind = kind;
  async_.part = part;
  async_.ceiling = res_.backoff_min_us;
  auto start = std::chrono::steady_clock::now();
  if (start < not_before_) {
    // The server asked for quiet: the first attempt waits in backoff, and
    // the op's deadline runs from the end of that wait.
    start = not_before_;
    async_.backoff_until = not_before_;
    async_.in_backoff = true;
  }
  async_.deadline = start + std::chrono::microseconds(timeout_us);
}

bool TcpSession::async_send_attempt() {
  switch (async_.kind) {
    case OpKind::kGet:
      return pool_.send_to_partition(async_.part,
                                     proto::Message{async_.get_req}, replica_);
    case OpKind::kPut:
      return pool_.send_to_partition(async_.part,
                                     proto::Message{async_.put_req}, replica_);
    case OpKind::kTx:
      return pool_.send_to_partition(async_.part, proto::Message{async_.tx_req},
                                     replica_);
    case OpKind::kNone:
      break;
  }
  return false;
}

void TcpSession::async_schedule_backoff(Duration floor_us) {
  // Full jitter over [floor, max(floor, ceiling)], ceiling doubling; the
  // sleep is a wall-clock gate the next pump() honors.
  const Duration span = std::max<Duration>(0, async_.ceiling - floor_us);
  const Duration sleep_us =
      floor_us + (span > 0 ? static_cast<Duration>(retry_rng_.uniform(
                                 static_cast<std::uint64_t>(span) + 1))
                           : 0);
  async_.ceiling = std::min(async_.ceiling * 2, res_.backoff_max_us);
  async_.backoff_until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(sleep_us);
  async_.in_backoff = true;
  async_.sent = false;
}

bool TcpSession::start_get(const std::string& key, Duration timeout_us) {
  return start_get_id(store::intern_key(key), timeout_us);
}

bool TcpSession::start_get_id(KeyId key, Duration timeout_us) {
  if (async_.kind != OpKind::kNone) return false;
  proto::GetReq req = engine_.make_get(key);
  req.op_id = ++op_seq_;
  history_.events.push_back(req);
  async_ = AsyncOp{};
  async_.get_req = std::move(req);
  async_begin(OpKind::kGet, pool_.partition_of(key), timeout_us);
  return true;
}

bool TcpSession::start_put(const std::string& key, const std::string& value,
                           Duration timeout_us) {
  return start_put_id(store::intern_key(key), value, timeout_us);
}

bool TcpSession::start_put_id(KeyId key, std::string value,
                              Duration timeout_us) {
  if (async_.kind != OpKind::kNone) return false;
  proto::PutReq req = engine_.make_put(key, std::move(value));
  req.op_id = ++op_seq_;
  history_.events.push_back(req);
  async_ = AsyncOp{};
  async_.put_req = std::move(req);
  async_begin(OpKind::kPut, pool_.partition_of(key), timeout_us);
  return true;
}

bool TcpSession::start_ro_tx(const std::vector<std::string>& keys,
                             Duration timeout_us) {
  std::vector<KeyId> ids;
  ids.reserve(keys.size());
  for (const std::string& k : keys) ids.push_back(store::intern_key(k));
  return start_ro_tx_ids(std::move(ids), timeout_us);
}

bool TcpSession::start_ro_tx_ids(std::vector<KeyId> keys,
                                 Duration timeout_us) {
  if (async_.kind != OpKind::kNone) return false;
  proto::RoTxReq req = engine_.make_ro_tx(std::move(keys));
  req.op_id = ++op_seq_;
  history_.events.push_back(req);
  async_ = AsyncOp{};
  async_.tx_req = std::move(req);
  async_begin(OpKind::kTx, /*part=*/0, timeout_us);
  return true;
}

bool TcpSession::pump() {
  using Clock = std::chrono::steady_clock;
  if (async_.kind == OpKind::kNone || async_.done) return true;

  bool overloaded = false;
  bool closed = false;
  Duration retry_after = 0;
  switch (async_.kind) {
    case OpKind::kGet: {
      auto rep = poll_reply<proto::GetReply>(async_.get_req.op_id, &overloaded,
                                             &retry_after, &closed);
      if (rep.has_value()) {
        history_.events.push_back(*rep);
        engine_.absorb_get(*rep);
        async_.get_res.ok = true;
        async_.get_res.found = rep->item.found;
        async_.get_res.value = rep->item.value;
        async_.get_res.ut = rep->item.ut;
        async_.get_res.sr = rep->item.sr;
        async_.get_res.blocked_us = rep->blocked_us;
      }
      break;
    }
    case OpKind::kPut: {
      auto rep = poll_reply<proto::PutReply>(async_.put_req.op_id, &overloaded,
                                             &retry_after, &closed);
      if (rep.has_value()) {
        history_.events.push_back(*rep);
        engine_.absorb_put(*rep);
        async_.put_res.ok = true;
        async_.put_res.ut = rep->ut;
        async_.put_res.blocked_us = rep->blocked_us;
      }
      break;
    }
    case OpKind::kTx: {
      auto rep = poll_reply<proto::RoTxReply>(async_.tx_req.op_id, &overloaded,
                                              &retry_after, &closed);
      if (rep.has_value()) {
        history_.events.push_back(*rep);
        engine_.absorb_ro_tx(*rep);
        async_.tx_res.ok = true;
        async_.tx_res.items = std::move(rep->items);
        async_.tx_res.blocked_us = rep->blocked_us;
      }
      break;
    }
    case OpKind::kNone:
      break;
  }
  const bool completed = (async_.kind == OpKind::kGet && async_.get_res.ok) ||
                         (async_.kind == OpKind::kPut && async_.put_res.ok) ||
                         (async_.kind == OpKind::kTx && async_.tx_res.ok);
  if (completed) {
    consec_fail_[replica_] = 0;
    async_.done = true;
    return true;
  }
  if (closed) {
    record_session_closed();
    if (async_.kind == OpKind::kGet) async_.get_res.session_closed = true;
    if (async_.kind == OpKind::kPut) async_.put_res.session_closed = true;
    if (async_.kind == OpKind::kTx) async_.tx_res.session_closed = true;
    async_.done = true;
    return true;
  }
  auto now = Clock::now();
  if (overloaded) {
    ++rstats_.overloaded;
    // Without resilience the attempt IS the op: it failed, and waiting out
    // the deadline would only stall the session. The refusal's hint still
    // holds the session's next op back.
    if (!res_.enabled) {
      not_before_ = now + std::chrono::microseconds(retry_after);
      const auto refused = [&](auto& res) {
        res.overloaded = true;
        res.retry_after_us = retry_after;
      };
      if (async_.kind == OpKind::kGet) refused(async_.get_res);
      if (async_.kind == OpKind::kPut) refused(async_.put_res);
      if (async_.kind == OpKind::kTx) refused(async_.tx_res);
      async_.done = true;
      return true;
    }
    async_schedule_backoff(std::max(res_.backoff_min_us, retry_after));
  }
  if (now >= async_.deadline) {
    if (res_.enabled) ++rstats_.deadline_exhausted;
    async_.done = true;  // results keep their default ok = false
    return true;
  }
  if (async_.in_backoff) {
    if (now < async_.backoff_until) return false;
    async_.in_backoff = false;
  }
  if (async_.sent) {
    if (now < async_.attempt_deadline) return false;  // reply still pending
    // Attempt timed out. Without resilience the attempt IS the op.
    if (!res_.enabled) {
      async_.done = true;
      return true;
    }
    ++rstats_.timeouts;
    if (++consec_fail_[replica_] >= res_.breaker_failures) {
      breaker_open_until_[replica_] =
          now + std::chrono::microseconds(res_.breaker_open_us);
      consec_fail_[replica_] = 0;
      ++rstats_.breaker_opens;
    }
    async_schedule_backoff(res_.backoff_min_us);
    return false;
  }
  // Launch an attempt (first send, or a resend after timeout/backoff).
  if (res_.enabled && breaker_open_until_[replica_] > now &&
      breaker_open_until_[1 - replica_] <= now) {
    replica_ = 1 - replica_;
    ++rstats_.failovers;
  }
  if (!async_.first && res_.enabled) ++rstats_.retries;
  const bool sent = async_send_attempt();
  async_.first = false;
  if (!res_.enabled) {
    // Single attempt: wait out the full op timeout whether or not the
    // transport took the frame.
    async_.attempt_deadline = async_.deadline;
    async_.sent = true;
    return false;
  }
  if (!sent) {
    // Transport refused (link down / over cap): count it as a failed
    // attempt and back off.
    ++rstats_.timeouts;
    if (++consec_fail_[replica_] >= res_.breaker_failures) {
      breaker_open_until_[replica_] =
          now + std::chrono::microseconds(res_.breaker_open_us);
      consec_fail_[replica_] = 0;
      ++rstats_.breaker_opens;
    }
    async_schedule_backoff(res_.backoff_min_us);
    return false;
  }
  const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
      async_.deadline - now);
  async_.attempt_deadline =
      now + std::min(std::chrono::microseconds(res_.attempt_timeout_us),
                     remaining);
  async_.sent = true;
  return false;
}

TcpSession::GetResult TcpSession::finish_get() {
  POCC_ASSERT(async_.kind == OpKind::kGet && async_.done);
  GetResult r = std::move(async_.get_res);
  async_ = AsyncOp{};
  return r;
}

TcpSession::PutResult TcpSession::finish_put() {
  POCC_ASSERT(async_.kind == OpKind::kPut && async_.done);
  PutResult r = std::move(async_.put_res);
  async_ = AsyncOp{};
  return r;
}

TcpSession::TxResult TcpSession::finish_tx() {
  POCC_ASSERT(async_.kind == OpKind::kTx && async_.done);
  TxResult r = std::move(async_.tx_res);
  async_ = AsyncOp{};
  return r;
}

// ------------------------------------------------------- TcpClientPool ----

TcpClientPool::TcpClientPool(ClusterLayout layout, DcId dc)
    : TcpClientPool(std::move(layout), dc, {}) {}

TcpClientPool::TcpClientPool(ClusterLayout layout, DcId dc,
                             std::vector<NodeAddress> addresses)
    : layout_(std::move(layout)),
      dc_(dc),
      addresses_(std::move(addresses)),
      transport_(
          TcpTransport::Callbacks{
              [this](ConnId c, proto::Frame f) { on_frame(c, std::move(f)); },
              nullptr,
              nullptr,
              nullptr,
              nullptr,
          },
          TcpTransport::Options{}) {
  POCC_ASSERT(dc_ < layout_.topology.num_dcs);
  if (addresses_.empty()) addresses_ = layout_.nodes;
}

TcpClientPool::~TcpClientPool() { stop(); }

void TcpClientPool::start() {
  {
    std::lock_guard lk(mu_);
    POCC_ASSERT_MSG(!started_, "start() called twice");
    started_ = true;
  }
  conn_by_part_[0].resize(layout_.topology.partitions_per_dc, kInvalidConn);
  conn_by_part_[1].resize(layout_.topology.partitions_per_dc, kInvalidConn);
  for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
    const NodeAddress* addr = nullptr;
    for (const NodeAddress& a : addresses_) {
      if (a.node == NodeId{dc_, p}) {
        addr = &a;
        break;
      }
    }
    POCC_ASSERT_MSG(addr != nullptr, "no address for a partition of this DC");
    // Greet each connection with the partition it was dialed for (client 0:
    // the pool speaks for many sessions), so a sharded server can pin the
    // socket to the event loop owning that partition's worker. The
    // transport replays the greeting on every reconnect — a fresh socket
    // lands on an arbitrary accept loop and is placed again.
    std::vector<std::uint8_t> hello;
    proto::encode(proto::ClientHello{0, p}, hello);
    conn_by_part_[0][p] = transport_.connect_peer(addr->host, addr->port);
    transport_.set_greeting(conn_by_part_[0][p], hello);
    if (resilience_.enabled) {
      // Sibling (failover) connection: a second TCP stream to the same
      // DC-local endpoint. A mid-frame reset or a wedged primary stream
      // does not strand the session — it retries on the sibling (replies
      // demux by client id, so either connection can carry them).
      conn_by_part_[1][p] = transport_.connect_peer(addr->host, addr->port);
      transport_.set_greeting(conn_by_part_[1][p], std::move(hello));
    }
  }
  transport_.start();
}

void TcpClientPool::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_) return;
    started_ = false;
  }
  transport_.stop();
}

bool TcpClientPool::wait_connected(Duration timeout_us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (true) {
    bool all_up = true;
    for (const ConnId c : conn_by_part_[0]) {
      if (!transport_.connected(c)) {
        all_up = false;
        break;
      }
    }
    if (all_up) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TcpSession& TcpClientPool::connect(ClientId id) {
  std::lock_guard lk(mu_);
  POCC_ASSERT_MSG(!session_index_.contains(id), "client id already in use");
  auto session = std::unique_ptr<TcpSession>(new TcpSession(id, dc_, *this));
  session_index_[id] = session.get();
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

std::vector<checker::SessionHistory> TcpClientPool::histories() const {
  std::lock_guard lk(mu_);
  std::vector<checker::SessionHistory> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) out.push_back(s->history());
  return out;
}

ClientResilienceStats TcpClientPool::resilience_stats() const {
  std::lock_guard lk(mu_);
  ClientResilienceStats total;
  for (const auto& s : sessions_) total += s->resilience_stats();
  return total;
}

ConnId TcpClientPool::conn_of(PartitionId part, unsigned replica) const {
  POCC_ASSERT(replica < 2 && part < conn_by_part_[replica].size());
  return conn_by_part_[replica][part];
}

PartitionId TcpClientPool::partition_of(KeyId key) const {
  return store::KeySpace::global().partition(
      key, layout_.topology.partitions_per_dc,
      layout_.topology.partition_scheme);
}

bool TcpClientPool::send_to_partition(PartitionId part, const proto::Message& m,
                                      unsigned replica) {
  POCC_ASSERT(replica < 2 && part < conn_by_part_[replica].size());
  const ConnId conn = conn_by_part_[replica][part];
  if (conn == kInvalidConn) return false;  // sibling not dialed
  std::vector<std::uint8_t> frame;
  proto::encode(m, frame);
  return transport_.send(conn, std::move(frame));
}

void TcpClientPool::on_frame(ConnId /*conn*/, proto::Frame frame) {
  auto* m = std::get_if<proto::Message>(&frame);
  if (m == nullptr) return;  // servers do not greet clients
  ClientId client = 0;
  if (const auto* get_rep = std::get_if<proto::GetReply>(m)) {
    client = get_rep->client;
  } else if (const auto* put_rep = std::get_if<proto::PutReply>(m)) {
    client = put_rep->client;
  } else if (const auto* tx_rep = std::get_if<proto::RoTxReply>(m)) {
    client = tx_rep->client;
  } else if (const auto* closed = std::get_if<proto::SessionClosed>(m)) {
    client = closed->client;
  } else if (const auto* ov = std::get_if<proto::Overloaded>(m)) {
    client = ov->client;
  } else {
    return;  // not client traffic
  }
  TcpSession* session = nullptr;
  {
    std::lock_guard lk(mu_);
    auto it = session_index_.find(client);
    if (it != session_index_.end()) session = it->second;
  }
  if (session != nullptr) session->deliver(std::move(*m));
}

}  // namespace pocc::net
