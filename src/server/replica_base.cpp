#include "server/replica_base.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/assert.hpp"
#include "server/durability.hpp"
#include "store/key_space.hpp"

namespace pocc::server {

ReplicaBase::ReplicaBase(NodeId self, const TopologyConfig& topology,
                         const ProtocolConfig& protocol,
                         const ServiceConfig& service, Context& ctx)
    : self_(self),
      topology_(topology),
      protocol_(protocol),
      service_(service),
      ctx_(ctx),
      vv_(topology.num_dcs) {
  POCC_ASSERT(self.dc < topology.num_dcs);
  POCC_ASSERT(self.part < topology.partitions_per_dc);
}

void ReplicaBase::start() {
  ctx_.set_timer(protocol_.heartbeat_interval_us, kTimerHeartbeat);
  ctx_.set_timer(protocol_.gc_interval_us, kTimerGc);
}

Duration ReplicaBase::handle_message(NodeId from, proto::Message m) {
  work_ = 0;
  if (recovering() && (std::holds_alternative<proto::GetReq>(m) ||
                       std::holds_alternative<proto::PutReq>(m) ||
                       std::holds_alternative<proto::RoTxReq>(m) ||
                       std::holds_alternative<proto::SliceReq>(m))) {
    // Recovery gate: until the siblings have streamed back the suffix this
    // replica lost, a client could read state older than what it saw before
    // the crash. Held with no deadline (HA-POCC's session expiry must not
    // fire on it) and outside the blocking stats: the handler runs afresh
    // once the gate opens.
    lot_.park(
        ctx_.time(), [this] { return !recovering(); },
        [this, from, m = std::move(m)](Duration) mutable {
          dispatch(from, std::move(m));
        });
    return work_;
  }
  dispatch(from, std::move(m));
  return work_;
}

void ReplicaBase::dispatch(NodeId from, proto::Message m) {
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, proto::GetReq>) {
          on_get(msg);
        } else if constexpr (std::is_same_v<T, proto::PutReq>) {
          on_put(msg);
        } else if constexpr (std::is_same_v<T, proto::RoTxReq>) {
          on_ro_tx(msg);
        } else if constexpr (std::is_same_v<T, proto::Replicate>) {
          on_replicate(msg);
        } else if constexpr (std::is_same_v<T, proto::Heartbeat>) {
          on_heartbeat(from, msg);
        } else if constexpr (std::is_same_v<T, proto::SliceReq>) {
          on_slice_req(from, msg);
        } else if constexpr (std::is_same_v<T, proto::SliceReply>) {
          on_slice_reply(from, msg);
        } else if constexpr (std::is_same_v<T, proto::GcReport>) {
          on_gc_report(msg);
        } else if constexpr (std::is_same_v<T, proto::GcVector>) {
          on_gc_vector(msg);
        } else if constexpr (std::is_same_v<T, proto::StabReport>) {
          on_stab_report(msg);
        } else if constexpr (std::is_same_v<T, proto::GssBroadcast>) {
          on_gss_broadcast(msg);
        } else if constexpr (std::is_same_v<T, proto::RecoveryReq>) {
          on_recovery_req(msg);
        } else if constexpr (std::is_same_v<T, proto::RecoveryVersion>) {
          on_recovery_version(msg);
        } else if constexpr (std::is_same_v<T, proto::RecoveryDone>) {
          on_recovery_done(msg);
        } else {
          POCC_ASSERT_MSG(false, "server received unexpected message type");
        }
      },
      std::move(m));
}

Duration ReplicaBase::on_timer(std::uint64_t timer_id) {
  work_ = 0;
  switch (timer_id) {
    case kTimerHeartbeat: {
      if (recovering() && ctx_.time() >= recovery_gate_until_) {
        // A sibling that never answers must not hold this replica forever:
        // open the gate and release the held client work. It is causally
        // consistent with what it has; only the lost suffix's freshness is
        // forfeited.
        recovery_gate_expired_ = true;
        recovering_dcs_ = 0;
        poke();
      }
      // Alg. 2 lines 19-26: if no PUT advanced VV[m] for Δ, broadcast the
      // local clock so remote version vectors keep moving. The runtime host
      // also sends heartbeats between ticks (promise_heartbeat()); both go
      // through heartbeat(), which keeps the peer-recovery mute.
      const Timestamp due = vv_[local_dc()] + protocol_.heartbeat_interval_us;
      if (ctx_.clock_peek() >= due && heartbeat(ctx_.clock_now())) {
        ++timer_heartbeats_;
      }
      ctx_.set_timer(protocol_.heartbeat_interval_us, kTimerHeartbeat);
      break;
    }
    case kTimerGc: {
      // §IV-B: report the entry-wise minimum snapshot still needed locally.
      VersionVector watermark = gc_watermark();
      for (const auto& [id, tx] : pending_tx_) {
        watermark.merge_min(tx.tv);
      }
      charge(service_.gc_round_us);
      const NodeId aggregator{local_dc(), 0};
      if (is_gc_aggregator()) {
        on_gc_report(proto::GcReport{self_, watermark});
      } else {
        ctx_.send(aggregator, proto::GcReport{self_, watermark});
      }
      ctx_.set_timer(protocol_.gc_interval_us, kTimerGc);
      break;
    }
    case kTimerClockWait: {
      clock_wakeup_armed_ = false;
      poke();
      break;
    }
    case kTimerExpire: {
      lot_.expire(ctx_.time());
      if (!lot_.empty() && lot_.next_deadline() != kTimestampMax) {
        ctx_.set_timer(
            std::max<Duration>(lot_.next_deadline() - ctx_.time(), 1),
            kTimerExpire);
      }
      break;
    }
    default:
      POCC_ASSERT_MSG(false, "unknown timer id");
  }
  return work_;
}

// ---------------------------------------------------------------- GET ----

Duration ReplicaBase::on_get(const proto::GetReq& req) {
  charge(service_.get_us);
  if (get_ready(req)) {
    serve_get(req, 0);
    return work_;
  }
  // Alg. 2 line 2: the client potentially depends on an item this node has
  // not received yet — stall the request until the dependency arrives.
  lot_.park(
      ctx_.time(), [this, req] { return get_ready(req); },
      [this, req](Duration blocked_us) { serve_get(req, blocked_us); },
      park_deadline(),
      [this, client = req.client](Duration blocked_us) {
        on_park_timeout(client, blocked_us);
      });
  arm_expiry();
  return work_;
}

void ReplicaBase::serve_get(const proto::GetReq& req, Duration blocked_us) {
  proto::ReadItem item = choose_get_version(req);
  ++gets_served_;
  blocking_.record_op(blocked_us);
  staleness_.record_read(item.fresher_versions, item.unmerged_versions);
  proto::GetReply reply;
  reply.client = req.client;
  reply.item = std::move(item);
  reply.blocked_us = blocked_us;
  reply.op_id = req.op_id;
  ctx_.reply(req.client, std::move(reply));
}

// ---------------------------------------------------------------- PUT ----

bool ReplicaBase::put_ready(const proto::PutReq& req) const {
  if (protocol_.put_dependency_wait &&
      !vv_.dominates(req.dv, skip_local())) {
    return false;
  }
  // Alg. 2 line 7: the new version's timestamp must exceed every dependency.
  return req.dv.max_entry() < ctx_.clock_peek();
}

Duration ReplicaBase::on_put(const proto::PutReq& req) {
  charge(service_.put_us);
  if (put_ready(req)) {
    serve_put(req, 0);
    return work_;
  }
  if (req.dv.max_entry() >= ctx_.clock_peek()) {
    arm_clock_wakeup(req.dv.max_entry());
  }
  lot_.park(
      ctx_.time(), [this, req] { return put_ready(req); },
      [this, req](Duration blocked_us) { serve_put(req, blocked_us); },
      park_deadline(),
      [this, client = req.client](Duration blocked_us) {
        on_park_timeout(client, blocked_us);
      });
  arm_expiry();
  return work_;
}

void ReplicaBase::serve_put(const proto::PutReq& req, Duration blocked_us) {
  const Timestamp ut = ctx_.clock_now();
  POCC_ASSERT_MSG(ut > req.dv.max_entry(),
                  "update timestamp must dominate its dependencies");
  vv_[local_dc()] = ut;  // Alg. 2 line 8

  store::Version v;
  v.key = req.key;
  v.value = req.value;
  v.sr = local_dc();
  v.ut = ut;
  v.dv = req.dv;
  v.opt_origin = mark_opt_origin(req);
  store_.insert(v);
  if (DurabilityLog* dur = ctx_.durability()) dur->log_version(v);
  if (version_observer_) version_observer_(req.client, req.op_id, v);

  // Alg. 2 lines 12-14: replicate to the partition's siblings. FIFO channels
  // + monotonic timestamps give replication in update-timestamp order.
  for (DcId j = 0; j < topology_.num_dcs; ++j) {
    if (j == local_dc()) continue;
    charge(service_.replicate_us);
    ctx_.send(NodeId{j, self_.part}, proto::Replicate{v});
  }

  ++puts_served_;
  blocking_.record_op(blocked_us);
  proto::PutReply reply;
  reply.client = req.client;
  reply.key = req.key;
  reply.ut = ut;
  reply.sr = local_dc();
  reply.blocked_us = blocked_us;
  reply.op_id = req.op_id;
  ctx_.reply(req.client, std::move(reply));
  poke();  // VV[m] and the clock advanced; parked slices/puts may be ready
}

// ------------------------------------------------------- replication ----

Duration ReplicaBase::on_replicate(const proto::Replicate& msg) {
  charge(service_.replicate_us);
  const store::Version& v = msg.version;
  // After begin_peer_recovery() the VV merges peer RecoveryDone vectors, so a
  // live FIFO link that lags the merged VV legitimately delivers versions
  // below it; they are idempotent duplicates of recovered state.
  POCC_ASSERT_MSG(fifo_tolerant_ || v.ut >= vv_[v.sr],
                  "replication channel must deliver in timestamp order");
  store_.insert(v);
  if (DurabilityLog* dur = ctx_.durability()) dur->log_version(v);
  vv_.raise(v.sr, v.ut);  // Alg. 2 line 18
  poke();
  return work_;
}

Duration ReplicaBase::on_heartbeat(NodeId from, const proto::Heartbeat& msg) {
  (void)from;
  charge(service_.heartbeat_us);
  POCC_ASSERT(msg.src_dc < topology_.num_dcs);
  vv_.raise(msg.src_dc, msg.ts);  // Alg. 2 line 28
  // Durable so a restart does not regress the VV below what clients already
  // observed through served reads (GET waits are VV-driven).
  if (DurabilityLog* dur = ctx_.durability()) dur->log_vv(vv_);
  poke();
  return work_;
}

bool ReplicaBase::heartbeat(Timestamp ts) {
  // Peer-recovery mute: until every RecoveryDone landed, this replica's
  // pre-crash sends may still be holes on the peers — a heartbeat now
  // would raise their VV[us] past versions only on_recovery_done()'s
  // push-back will deliver. The first heartbeat after the gate opens
  // FIFO-follows those RecoveryVersions on every link, so the promise
  // "every update <= ts was sent" holds again.
  if (recovering()) return false;
  vv_[local_dc()] = ts;
  // The raise must be durable before any peer acts on the broadcast: a
  // heartbeat promises "every update <= ts has been sent", which after a
  // crash means "…is in the WAL" (the host holds the sends below until
  // this append is synced).
  if (DurabilityLog* dur = ctx_.durability()) dur->log_vv(vv_);
  for (DcId j = 0; j < topology_.num_dcs; ++j) {
    if (j == local_dc()) continue;
    charge(service_.heartbeat_us);
    ctx_.send(NodeId{j, self_.part}, proto::Heartbeat{local_dc(), ts});
  }
  poke();
  return true;
}

Duration ReplicaBase::promise_heartbeat(Timestamp ts) {
  work_ = 0;
  // A clock reading at or past ts means every later local version gets a
  // newer timestamp, and every earlier one was sent before this heartbeat
  // on the same FIFO links: Heartbeat{m, ts} is as true as a timer's.
  if (vv_[local_dc()] < ts && read_clock() >= ts && heartbeat(ts)) {
    ++pass_heartbeats_;
  }
  return work_;
}

Timestamp ReplicaBase::read_clock() {
  clock_read_ = ctx_.clock_now();
  return clock_read_;
}

// ----------------------------------------------------- crash recovery ----

void ReplicaBase::restore_version(const store::Version& v) {
  POCC_ASSERT(v.sr < topology_.num_dcs);
  store_.insert(v);
  vv_.raise(v.sr, v.ut);
}

void ReplicaBase::restore_vv(const VersionVector& vv) {
  if (vv.size() == vv_.size()) vv_.merge_max(vv);
}

void ReplicaBase::begin_peer_recovery(Duration gate_us) {
  fifo_tolerant_ = true;
  recovery_gate_until_ = ctx_.time() + gate_us;
  for (DcId j = 0; j < topology_.num_dcs; ++j) {
    if (j == local_dc()) continue;
    ++recovering_dcs_;
    ctx_.send(NodeId{j, self_.part}, proto::RecoveryReq{self_, vv_});
  }
}

Duration ReplicaBase::on_recovery_req(const proto::RecoveryReq& req) {
  charge(service_.gc_round_us);
  // Stream every version fresher than the crashed sibling's durable cut —
  // its own source replica included: versions it created and replicated out
  // may have been acknowledged here before its fsync covered them. GC never
  // tears a hole into this: only versions superseded by a fresher one of the
  // same key are collected, so the per-key freshest state is always present.
  const auto cut = [&](DcId sr) {
    return sr < req.durable_vv.size() ? req.durable_vv[sr] : 0;
  };
  for (const auto& [key, chain] : store_.chains()) {
    for (const store::Version& v : chain.versions()) {
      if (v.ut > cut(v.sr)) {
        charge(service_.replicate_us);
        ctx_.send(req.from, proto::RecoveryVersion{v});
      }
    }
  }
  // DONE carries this node's VV: only merged by the receiver *after* every
  // RecoveryVersion above landed (same FIFO link), so the VV never promises
  // versions still in flight.
  ctx_.send(req.from, proto::RecoveryDone{self_, vv_});
  return work_;
}

Duration ReplicaBase::on_recovery_version(const proto::RecoveryVersion& msg) {
  charge(service_.replicate_us);
  if (msg.version.sr >= topology_.num_dcs) return work_;  // corrupt peer
  store_.insert(msg.version);  // idempotent on (ut, sr)
  if (DurabilityLog* dur = ctx_.durability()) dur->log_version(msg.version);
  ++versions_recovered_;
  return work_;
}

Duration ReplicaBase::on_recovery_done(const proto::RecoveryDone& msg) {
  charge(service_.heartbeat_us);
  if (msg.vv.size() == vv_.size()) {
    // Push back our own durable suffix the peer never received — Replicates
    // that died in this process's batcher outbox at crash time. Tolerantly
    // restored on the peer (RecoveryVersion, not Replicate).
    const Timestamp peer_has = msg.vv[local_dc()];
    for (const auto& [key, chain] : store_.chains()) {
      for (const store::Version& v : chain.versions()) {
        if (v.sr == local_dc() && v.ut > peer_has) {
          charge(service_.replicate_us);
          ctx_.send(msg.from, proto::RecoveryVersion{v});
        }
      }
    }
    vv_.merge_max(msg.vv);
    if (DurabilityLog* dur = ctx_.durability()) dur->log_vv(vv_);
  }
  // The last Done opens the gate: poke() releases the held client work.
  if (recovering()) recovering_dcs_ = recovering_dcs_ - 1;
  poke();
  return work_;
}

// -------------------------------------------------------------- RO-TX ----

Duration ReplicaBase::on_ro_tx(const proto::RoTxReq& req) {
  // Alg. 2 lines 29-38: this node coordinates the transaction.
  std::unordered_map<PartitionId, std::vector<KeyId>> groups;
  for (const KeyId key : req.keys) {
    groups[store::KeySpace::global().partition(key,
                                               topology_.partitions_per_dc,
                                               topology_.partition_scheme)]
        .push_back(key);
  }
  charge(service_.tx_coord_us +
         service_.tx_coord_per_part_us *
             static_cast<Duration>(groups.size()));

  const VersionVector tv = compute_tx_snapshot(req);
  const std::uint64_t tx_id =
      (static_cast<std::uint64_t>(self_.dc) << 48) |
      (static_cast<std::uint64_t>(self_.part) << 32) | next_tx_seq_++;

  PendingTx tx;
  tx.client = req.client;
  tx.op_id = req.op_id;
  tx.tv = tv;
  tx.awaiting = static_cast<std::uint32_t>(groups.size());
  pending_tx_.emplace(tx_id, std::move(tx));

  for (auto& [part, keys] : groups) {
    if (part == self_.part) {
      // Local slice: same wait/visibility rules, no network hop.
      dispatch_slice(tx_id, self_, keys, tv, req.pessimistic);
    } else {
      proto::SliceReq slice;
      slice.tx_id = tx_id;
      slice.coordinator = self_;
      slice.keys = std::move(keys);
      slice.tv = tv;
      slice.pessimistic = req.pessimistic;
      ctx_.send(NodeId{local_dc(), part}, std::move(slice));
    }
  }
  return work_;
}

void ReplicaBase::dispatch_slice(std::uint64_t tx_id, NodeId coordinator,
                                 const std::vector<KeyId>& keys,
                                 const VersionVector& tv, bool pessimistic) {
  if (slice_ready(tv)) {
    serve_slice(tx_id, coordinator, keys, tv, pessimistic, 0);
    return;
  }
  // Alg. 2 line 40: wait until this node has installed every update in the
  // snapshot.
  lot_.park(
      ctx_.time(), [this, tv] { return slice_ready(tv); },
      [this, tx_id, coordinator, keys, tv, pessimistic](Duration blocked_us) {
        serve_slice(tx_id, coordinator, keys, tv, pessimistic, blocked_us);
      },
      park_deadline(),
      [this, tx_id, coordinator](Duration blocked_us) {
        on_slice_timeout(tx_id, coordinator, blocked_us);
      });
  arm_expiry();
}

Duration ReplicaBase::on_slice_req(NodeId from, const proto::SliceReq& req) {
  (void)from;
  dispatch_slice(req.tx_id, req.coordinator, req.keys, req.tv,
                 req.pessimistic);
  return work_;
}

void ReplicaBase::serve_slice(std::uint64_t tx_id, NodeId coordinator,
                              const std::vector<KeyId>& keys,
                              const VersionVector& tv, bool pessimistic,
                              Duration blocked_us) {
  charge(service_.slice_us);
  std::vector<proto::ReadItem> items;
  items.reserve(keys.size());
  for (const KeyId key : keys) {
    charge(service_.slice_per_key_us);
    items.push_back(read_in_snapshot(key, tv, pessimistic));
  }
  ++slices_served_;
  blocking_.record_op(blocked_us);

  if (coordinator == self_) {
    accumulate_slice(tx_id, std::move(items), blocked_us);
  } else {
    proto::SliceReply reply;
    reply.tx_id = tx_id;
    reply.items = std::move(items);
    reply.blocked_us = blocked_us;
    ctx_.send(coordinator, std::move(reply));
  }
}

proto::ReadItem ReplicaBase::read_in_snapshot(KeyId key,
                                              const VersionVector& tv,
                                              bool pessimistic) {
  proto::ReadItem item;
  item.key = key;
  const store::VersionChain* chain = store_.find(key);
  if (chain == nullptr) {
    // Implicit initial version: empty value, no dependencies (always visible).
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
    return item;
  }
  const auto lookup = chain->freshest_where([&](const store::Version& v) {
    if (pessimistic && !visible_to_pessimistic(v, tv)) return false;
    return slice_visible(v, tv, pessimistic);
  });
  // Fuzz triage hook (docs/TESTING.md): POCC_DEBUG_KEY=<key> dumps every
  // snapshot read of that key that found no visible version — replaying a
  // failing seed with this set shows the chain/TV/VV the decision saw.
  static const char* debug_key = std::getenv("POCC_DEBUG_KEY");
  if (debug_key != nullptr && lookup.version == nullptr &&
      store::key_name(key) == debug_key) {
    std::fprintf(stderr,
                 "[dbg] slice miss key=%s node=%s t=%lld tv=%s vv=%s chain:\n",
                 store::key_name(key).c_str(), self_.to_string().c_str(),
                 static_cast<long long>(ctx_.time()), tv.to_string().c_str(),
                 vv_.to_string().c_str());
    for (const store::Version& v : chain->versions()) {
      std::fprintf(stderr, "[dbg]   ut=%lld sr=%u dv=%s\n",
                   static_cast<long long>(v.ut), v.sr,
                   v.dv.to_string().c_str());
    }
  }
  charge(service_.version_hop_us * static_cast<Duration>(lookup.hops));
  const std::uint32_t unmerged = count_unmerged(*chain);
  if (lookup.version == nullptr) {
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
  } else {
    item.found = true;
    item.value = lookup.version->value;
    item.sr = lookup.version->sr;
    item.ut = lookup.version->ut;
    item.dv = lookup.version->dv;
  }
  item.fresher_versions = lookup.fresher;
  item.unmerged_versions = unmerged;
  staleness_.record_read(item.fresher_versions, item.unmerged_versions);
  return item;
}

void ReplicaBase::accumulate_slice(std::uint64_t tx_id,
                                   std::vector<proto::ReadItem> items,
                                   Duration blocked_us) {
  auto it = pending_tx_.find(tx_id);
  if (it == pending_tx_.end()) return;  // transaction aborted (HA timeout)
  PendingTx& tx = it->second;
  for (auto& item : items) tx.items.push_back(std::move(item));
  tx.max_blocked_us = std::max(tx.max_blocked_us, blocked_us);
  POCC_ASSERT(tx.awaiting > 0);
  --tx.awaiting;
  finish_tx_if_complete(tx_id);
}

Duration ReplicaBase::on_slice_reply(NodeId from,
                                     const proto::SliceReply& msg) {
  (void)from;
  charge(service_.tx_coord_us / 2);
  if (msg.aborted) {
    // A slice gave up waiting (HA-POCC partition suspicion): abort the whole
    // transaction and force the client to re-initialize its session.
    auto it = pending_tx_.find(msg.tx_id);
    if (it != pending_tx_.end()) {
      ctx_.reply(it->second.client,
                 proto::SessionClosed{it->second.client,
                                      "transaction slice timed out"});
      pending_tx_.erase(it);
    }
    return work_;
  }
  accumulate_slice(msg.tx_id, msg.items, msg.blocked_us);
  return work_;
}

void ReplicaBase::finish_tx_if_complete(std::uint64_t tx_id) {
  auto it = pending_tx_.find(tx_id);
  POCC_ASSERT(it != pending_tx_.end());
  PendingTx& tx = it->second;
  if (tx.awaiting > 0) return;
  proto::RoTxReply reply;
  reply.client = tx.client;
  reply.items = std::move(tx.items);
  reply.tv = tx.tv;
  reply.blocked_us = tx.max_blocked_us;
  reply.op_id = tx.op_id;
  ctx_.reply(tx.client, std::move(reply));
  pending_tx_.erase(it);
}

void ReplicaBase::on_slice_timeout(std::uint64_t tx_id, NodeId coordinator,
                                   Duration blocked_us) {
  (void)blocked_us;
  (void)coordinator;
  (void)tx_id;
  // Base protocol parks without deadlines; HA-POCC overrides park_deadline()
  // and handles aborts via on_park_timeout of the coordinator-side entry.
}

// ------------------------------------------------------------------ GC ----

VersionVector ReplicaBase::gc_watermark() const { return vv_; }

Duration ReplicaBase::on_gc_report(const proto::GcReport& msg) {
  charge(service_.gc_round_us);
  POCC_ASSERT(is_gc_aggregator());
  gc_reports_[msg.from.part] = msg.low_watermark;
  if (gc_reports_.size() == topology_.partitions_per_dc) {
    VersionVector gv = gc_reports_.begin()->second;
    for (const auto& [part, wm] : gc_reports_) gv.merge_min(wm);
    for (PartitionId p = 0; p < topology_.partitions_per_dc; ++p) {
      if (p == self_.part) continue;
      ctx_.send(NodeId{local_dc(), p}, proto::GcVector{gv});
    }
    on_gc_vector(proto::GcVector{gv});
  }
  return work_;
}

Duration ReplicaBase::on_gc_vector(const proto::GcVector& msg) {
  charge(service_.gc_round_us);
  const std::uint64_t removed = store_.gc([&](const store::Version& v) {
    return gc_version_at_floor(v, msg.gv);
  });
  charge(service_.version_hop_us * static_cast<Duration>(removed));
  gc_floor_us_ = static_cast<std::int64_t>(msg.gv.min_entry());
  return work_;
}

bool ReplicaBase::gc_version_at_floor(const store::Version& v,
                                      const VersionVector& gv) const {
  return v.dv.leq(gv);
}

// ----------------------------------------------------- stabilization ----

Duration ReplicaBase::on_stab_report(const proto::StabReport& msg) {
  (void)msg;  // POCC runs no stabilization protocol (§V).
  return work_;
}

Duration ReplicaBase::on_gss_broadcast(const proto::GssBroadcast& msg) {
  (void)msg;
  return work_;
}

// --------------------------------------------------------- utilities ----

bool ReplicaBase::slice_ready(const VersionVector& tv) {
  return vv_.dominates(tv, skip_local()) &&
         local_entry_covered(tv[local_dc()]);
}

bool ReplicaBase::local_entry_covered(Timestamp ts) {
  // This partition creates every local version itself, each stamped by a
  // strictly monotonic clock: once a reading is at or past ts, all local
  // versions <= ts are installed. (Slices are held while recovering(), when
  // its own pre-crash versions may still arrive as RecoveryVersions.)
  if (vv_[local_dc()] >= ts || clock_read_ >= ts) return true;
  if (ctx_.clock_peek() < ts) {
    arm_clock_wakeup(ts);
    return false;
  }
  return read_clock() >= ts;
}

std::uint32_t ReplicaBase::count_unmerged(
    const store::VersionChain& chain) const {
  (void)chain;
  return 0;
}

void ReplicaBase::on_park_timeout(ClientId client, Duration blocked_us) {
  (void)client;
  (void)blocked_us;
  POCC_ASSERT_MSG(false, "parked request expired outside HA mode");
}

bool ReplicaBase::visible_to_pessimistic(const store::Version& v,
                                         const VersionVector& tv) const {
  (void)v;
  (void)tv;
  return true;
}

bool ReplicaBase::mark_opt_origin(const proto::PutReq& req) const {
  (void)req;
  return false;
}

void ReplicaBase::poke() { lot_.poke(ctx_.time()); }

void ReplicaBase::arm_clock_wakeup(Timestamp clock_target) {
  if (clock_wakeup_armed_ && clock_target >= armed_clock_target_) return;
  const Duration delay =
      std::max<Duration>(clock_target - ctx_.clock_peek() + 1, 1);
  ctx_.set_timer(delay, kTimerClockWait);
  clock_wakeup_armed_ = true;
  armed_clock_target_ = clock_target;
}

void ReplicaBase::arm_expiry() {
  if (park_deadline() <= 0) return;
  const Timestamp deadline = lot_.next_deadline();
  if (deadline == kTimestampMax) return;
  ctx_.set_timer(std::max<Duration>(deadline - ctx_.time(), 1), kTimerExpire);
}

}  // namespace pocc::server
