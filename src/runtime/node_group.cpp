#include "runtime/node_group.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "runtime/placement.hpp"
#include "wal/wal_format.hpp"

namespace pocc::rt {

namespace {

struct ClientOpKey {
  ClientId client = 0;
  std::uint64_t op_id = 0;
};

/// Client and op_id of `m` when it is one of `Kinds`; op_id 0 otherwise.
/// Clients number their ops from 1, so op_id 0 is never tracked.
template <typename... Kinds>
ClientOpKey client_op_of(const proto::Message& m) {
  return std::visit(
      [](const auto& msg) -> ClientOpKey {
        using T = std::decay_t<decltype(msg)>;
        if constexpr ((std::is_same_v<T, Kinds> || ...)) {
          return {msg.client, msg.op_id};
        } else {
          return {};
        }
      },
      m);
}

}  // namespace

NodeGroup::NodeGroup(DcId dc, std::vector<PartitionId> parts, Router& router,
                     Options options)
    : dc_(dc),
      parts_(std::move(parts)),
      router_(router),
      opt_(options),
      rng_(options.seed ^ (0x9e3779b97f4a7c15ULL * (dc + 1))) {
  const auto placement = place_partitions(parts_, opt_.threads);
  std::sort(parts_.begin(), parts_.end());
  POCC_ASSERT_MSG(opt_.wake != nullptr, "a node group needs a wake callback");
  POCC_ASSERT_MSG(opt_.registry != nullptr, "a node group needs a registry");
  by_part_.assign(parts_.back() + 1, nullptr);
  for (const PartitionId p : parts_) {
    auto slot = std::make_unique<Slot>(*this, NodeId{dc_, p}, opt_.clock, rng_);
    if (opt_.wal != nullptr) slot->wal = &opt_.wal->wal_for(p);
    by_part_[p] = slot.get();
    slots_.push_back(std::move(slot));
  }
  for (std::uint32_t w = 0; w < placement.size(); ++w) {
    workers_.push_back(std::make_unique<Worker>());
    Worker& wk = *workers_.back();
    wk.index = w;
    // One histogram shard per worker per op: repeated registration of the
    // same (name, labels) yields a fresh cell, merged at scrape time.
    wk.lat_get = opt_.registry->histogram(
        "pocc_server_op_us", {{"op", "get"}},
        "Server-side request latency at the engine seam (us)");
    wk.lat_put = opt_.registry->histogram("pocc_server_op_us", {{"op", "put"}});
    wk.lat_tx = opt_.registry->histogram("pocc_server_op_us",
                                         {{"op", "ro_tx"}});
    // Thread affinity: a partition always lives on the worker the placement
    // rule gives it — the engine is only ever touched by that worker.
    for (const PartitionId p : placement[w]) {
      by_part_[p]->worker = &wk;
      wk.slots.push_back(by_part_[p]);
    }
  }
}

NodeGroup::~NodeGroup() { stop(); }

NodeGroup::Slot::Slot(NodeGroup& g, NodeId self_id,
                      const ClockConfig& clock_cfg, Rng& seeder)
    : group(g), self(self_id), clock(clock_cfg, seeder) {}

void NodeGroup::Slot::send(NodeId to, proto::Message m) {
  if (to.dc != self.dc) worker->sent_to_peer_dc = true;
  if (wal != nullptr && wal->unsynced_bytes() > 0) {
    // Output commit: this send may depend on records a crash could still
    // lose. Park it until the covering group commit (flush_durability).
    // Sibling-partition sends are held too — a sibling could otherwise
    // leak the unsynced state to a client through its own replies.
    held.push_back(HeldOutput{false, to, 0, std::move(m)});
    return;
  }
  if (group.hosts(to)) {
    // Sibling partition in this process: a queue push, not a socket write.
    group.local_deliveries_.fetch_add(1, std::memory_order_relaxed);
    group.enqueue(self, to, std::move(m));
    return;
  }
  group.router_.route(self, to, std::move(m));
}

void NodeGroup::Slot::reply(ClientId client, proto::Message m) {
  if (wal != nullptr && wal->unsynced_bytes() > 0) {
    held.push_back(HeldOutput{true, NodeId{}, client, std::move(m)});
    return;
  }
  // Released: everything the reply depends on is synced, so from here on a
  // retry of the op may be answered with this copy.
  const std::uint64_t op_id =
      client_op_of<proto::GetReply, proto::PutReply, proto::RoTxReply>(m)
          .op_id;
  if (op_id != 0) {
    auto it = client_ops.find(client);
    if (it != client_ops.end() && it->second.op_id == op_id) {
      it->second.reply = m;
    }
  }
  group.router_.route_to_client(self, client, std::move(m));
}

bool NodeGroup::Slot::absorb_retry(const proto::Message& m) {
  const ClientOpKey key =
      client_op_of<proto::GetReq, proto::PutReq, proto::RoTxReq>(m);
  if (key.op_id == 0) return false;
  ClientOp& op = client_ops[key.client];
  if (key.op_id > op.op_id) {
    // A new op replaces the entry, in flight until its reply is released.
    op.op_id = key.op_id;
    op.reply.reset();
    return false;
  }
  // A copy of the latest op gets its reply again once released, and is
  // swallowed before that (the original's reply is coming). A copy of an
  // older op is dropped: the session has already moved past it.
  group.deduped_requests_.fetch_add(1, std::memory_order_relaxed);
  if (key.op_id == op.op_id && op.reply.has_value()) {
    group.router_.route_to_client(self, key.client, *op.reply);
  }
  return true;
}

void NodeGroup::Slot::flush_durability() {
  if (wal == nullptr) return;
  if (wal->unsynced_bytes() > 0) wal->sync();
  if (!held.empty()) {
    // Re-route through send()/reply(): with the tail synced they go
    // straight out, in the order the handlers produced them.
    std::vector<HeldOutput> outs;
    outs.swap(held);
    for (HeldOutput& o : outs) {
      if (o.is_reply) {
        reply(o.client, std::move(o.msg));
      } else {
        send(o.to, std::move(o.msg));
      }
    }
  }
  if (wal->wants_checkpoint()) {
    // Step 1 on the owner thread: rotate, then serialize the cut — between
    // the two nothing appends (same thread), so the snapshot is exactly
    // "everything in segments < seq". Step 2 (durable write + prune) runs
    // on the manager's flusher thread.
    const std::uint64_t seq = wal->begin_checkpoint();
    group.opt_.wal->submit_checkpoint(
        wal, seq,
        wal::encode_snapshot(engine->partition_store(),
                             engine->version_vector()));
  }
}

void NodeGroup::Slot::set_timer(Duration delay, std::uint64_t timer_id) {
  // Only ever called from the owning worker's thread (within a handler), the
  // sole thread that touches the worker's timer heap — no lock needed.
  worker->timers.push(Timer{steady_now_us() + delay, this, timer_id});
}

void NodeGroup::install_engines(const EngineFactory& make) {
  for (auto& slot : slots_) {
    POCC_ASSERT_MSG(slot->engine == nullptr, "engines already installed");
    slot->engine = make(slot->self, *slot);
    POCC_ASSERT(slot->engine != nullptr);
  }
}

void NodeGroup::start() {
  POCC_ASSERT_MSG(!started_, "start() called twice");
  for (auto& slot : slots_) {
    POCC_ASSERT_MSG(slot->engine != nullptr,
                    "install_engines() must precede start()");
  }
  started_ = true;  // the driving threads call service()
}

void NodeGroup::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // The driving threads have already stopped (the host stops the transport
  // first), so this thread is now each worker's sole toucher. One final
  // pass per worker drains what they left behind and flushes unsynced WAL
  // tails.
  for (auto& w : workers_) service(w->index);
}

bool NodeGroup::push(NodeId from, NodeId to, proto::Message& m,
                     bool admission) {
  POCC_ASSERT_MSG(hosts(to),
                  "enqueue for a partition this group does not host");
  Slot* slot = by_part_[to.part];
  Worker& w = *slot->worker;
  {
    std::lock_guard lk(w.mu);
    if (admission && opt_.max_inbox_messages > 0 &&
        w.inbox.size() >= opt_.max_inbox_messages) {
      return false;
    }
    w.inbox.push_back(Incoming{from, slot, std::move(m)});
  }
  opt_.wake(w.index);
  return true;
}

void NodeGroup::enqueue(NodeId from, NodeId to, proto::Message m) {
  push(from, to, m, /*admission=*/false);
}

bool NodeGroup::try_enqueue(NodeId from, NodeId to, proto::Message m) {
  return push(from, to, m, /*admission=*/true);
}

std::size_t NodeGroup::inbox_depth(PartitionId part) const {
  POCC_ASSERT(hosts(NodeId{dc_, part}));
  Worker& w = *by_part_[part]->worker;
  std::lock_guard lk(w.mu);
  return w.inbox.size();
}

server::ReplicaBase& NodeGroup::engine(PartitionId part) {
  POCC_ASSERT(hosts(NodeId{dc_, part}));
  return *by_part_[part]->engine;
}

std::uint32_t NodeGroup::worker_of(PartitionId part) const {
  POCC_ASSERT(hosts(NodeId{dc_, part}));
  return by_part_[part]->worker->index;
}

Timestamp NodeGroup::service(std::uint32_t worker) {
  POCC_ASSERT(worker < workers_.size());
  Worker& w = *workers_[worker];
  // Engine timer arming (start()) must run on the owner thread: it calls
  // set_timer, which touches this worker's heap. Lazily on the first pass
  // so driving threads need no separate startup hook.
  if (!w.engines_started) {
    w.engines_started = true;
    for (Slot* slot : w.slots) slot->engine->start();
  }
  while (true) {
    // Fire due timers first; engine calls run with no lock held (the
    // engine and the timer heap belong to this thread alone).
    while (!w.timers.empty() && w.timers.top().at <= steady_now_us()) {
      const Timer t = w.timers.top();
      w.timers.pop();
      t.slot->engine->on_timer(t.id);
    }
    // Group-commit anything the timer callbacks appended (heartbeat VV
    // raises) before returning to the loop's sleep — held outputs must
    // never straddle a wait.
    if (std::any_of(w.slots.begin(), w.slots.end(),
                    [](const Slot* s) { return s->needs_flush(); })) {
      for (Slot* slot : w.slots) slot->flush_durability();
    }
    bool drained = false;
    {
      std::lock_guard lk(w.mu);
      if (!w.inbox.empty()) {
        // Swap-drain: take the whole backlog in ONE lock cycle instead of
        // a mutex round-trip per message — a 64-message Batch frame
        // enqueues 64 items back-to-back, and producers must not contend
        // with the drain.
        std::swap(w.backlog, w.inbox);
        drained = true;
      }
    }
    if (!drained) break;
    w.sent_to_peer_dc = false;
    while (!w.backlog.empty()) {
      Incoming in = w.backlog.pop_front();
      if (in.slot->absorb_retry(in.msg)) continue;
      // Server-side op latency at the engine seam: time only the
      // client-visible request types (one steady-clock read pair per timed
      // message).
      stats::HistogramCell* cell = nullptr;
      if (std::holds_alternative<proto::GetReq>(in.msg)) {
        cell = w.lat_get;
      } else if (std::holds_alternative<proto::PutReq>(in.msg)) {
        cell = w.lat_put;
      } else if (std::holds_alternative<proto::RoTxReq>(in.msg)) {
        cell = w.lat_tx;
      }
      if (cell == nullptr) {
        in.slot->engine->handle_message(in.from, std::move(in.msg));
      } else {
        const Timestamp t0 = steady_now_us();
        in.slot->engine->handle_message(in.from, std::move(in.msg));
        cell->record(static_cast<std::int64_t>(steady_now_us() - t0));
      }
    }
    if (w.sent_to_peer_dc) promise_heartbeats(w);
    // One fdatasync covers the whole drained batch (group commit), then
    // the batch's replies and sends leave together.
    for (Slot* slot : w.slots) slot->flush_durability();
  }
  return w.timers.empty() ? 0 : w.timers.top().at;
}

void NodeGroup::promise_heartbeats(Worker& w) {
  // One shared timestamp: a partition promising its own fresh clock would
  // run ahead of its siblings, and RO-TX snapshots taken from it would then
  // wait on them instead.
  Timestamp newest = kTimestampMin;
  for (const Slot* slot : w.slots) {
    newest = std::max(newest, slot->engine->version_vector()[dc_]);
  }
  for (Slot* slot : w.slots) {
    if (slot->wal != nullptr && slot->wal->unsynced_bytes() == 0) continue;
    slot->engine->promise_heartbeat(newest);
  }
}

}  // namespace pocc::rt
