#include "cluster/sim_client.hpp"

#include <utility>

#include "cluster/sim_cluster.hpp"
#include "common/assert.hpp"
#include "store/key_space.hpp"

namespace pocc::cluster {

namespace {
/// Delay before a session re-connects after a SessionClosed (models the
/// client library re-establishing a session, §III-B).
constexpr Duration kReconnectDelayUs = 1'000;
}  // namespace

SimClient::SimClient(ClientId id, DcId dc, NodeId home, Mode mode,
                     SimCluster& cluster, Rng rng, bool snapshot_rdv)
    : engine_(id, dc, cluster.config().topology.num_dcs, snapshot_rdv),
      home_(home),
      mode_(mode),
      cluster_(cluster),
      rng_(rng) {}

void SimClient::start_workload(const workload::WorkloadConfig& wl) {
  POCC_ASSERT(mode_ == Mode::kWorkload);
  generator_ = std::make_unique<workload::Generator>(
      wl, cluster_.config().topology.partitions_per_dc, rng_.next());
  // Desynchronize client phases across the cluster.
  const Duration phase = wl.think_time_us > 0
                             ? static_cast<Duration>(rng_.uniform(
                                   static_cast<std::uint64_t>(wl.think_time_us)))
                             : 0;
  cluster_.simulator().schedule(phase, [this] { issue_next_workload_op(); });
}

NodeId SimClient::target_for_key(KeyId key) const {
  const auto& topo = cluster_.config().topology;
  return NodeId{engine_.dc(),
                store::KeySpace::global().partition(
                    key, topo.partitions_per_dc, topo.partition_scheme)};
}

void SimClient::issue_next_workload_op() {
  if (stopped_) return;
  current_op_ = generator_->next();
  issue_op(current_op_);
}

void SimClient::issue_op(const workload::Op& op) {
  POCC_ASSERT(!awaiting_reply_);
  awaiting_reply_ = true;
  ++op_seq_;
  issued_at_ = cluster_.simulator().now();
  if (mode_ == Mode::kWorkload && generator_ != nullptr) {
    const Duration timeout = generator_->config().op_timeout_us;
    if (timeout > 0) {
      cluster_.simulator().schedule(
          timeout, [this, seq = op_seq_] { on_op_timeout(seq); });
    }
  }
  auto* checker = cluster_.checker();
  switch (op.type) {
    case workload::OpType::kGet: {
      proto::GetReq req = engine_.make_get(op.keys.front());
      req.op_id = op_seq_;
      if (checker != nullptr) checker->on_get_issued(id(), req);
      cluster_.network().client_send(id(), target_for_key(op.keys.front()),
                                     std::move(req));
      break;
    }
    case workload::OpType::kPut: {
      proto::PutReq req = engine_.make_put(op.keys.front(), op.value);
      req.op_id = op_seq_;
      if (checker != nullptr) checker->on_put_issued(id(), req);
      cluster_.network().client_send(id(), target_for_key(op.keys.front()),
                                     std::move(req));
      break;
    }
    case workload::OpType::kRoTx: {
      proto::RoTxReq req = engine_.make_ro_tx(op.keys);
      req.op_id = op_seq_;
      if (checker != nullptr) checker->on_tx_issued(id(), req);
      // The collocated server coordinates the transaction (§II-C).
      cluster_.network().client_send(id(), home_, std::move(req));
      break;
    }
  }
}

void SimClient::record_latency(workload::OpType type, Duration latency) {
  if (!cluster_.measuring()) return;
  switch (type) {
    case workload::OpType::kGet:
      get_latency_us_.record(latency);
      break;
    case workload::OpType::kPut:
      put_latency_us_.record(latency);
      break;
    case workload::OpType::kRoTx:
      tx_latency_us_.record(latency);
      break;
  }
  ++completed_;
}

void SimClient::deliver(NodeId from, proto::Message m) {
  (void)from;
  if (std::holds_alternative<proto::SessionClosed>(m)) {
    handle_session_closed(std::get<proto::SessionClosed>(m));
    return;
  }
  if (!awaiting_reply_) return;  // stale reply from an aborted session
  handle_reply(std::move(m));
}

void SimClient::handle_session_closed(const proto::SessionClosed& msg) {
  POCC_ASSERT(msg.client == id());
  ++fallbacks_;
  const bool was_awaiting = awaiting_reply_;
  awaiting_reply_ = false;
  // §III-B: re-initialize the session; the new session runs the pessimistic
  // protocol and may not observe items read/written by the old session.
  engine_.reinitialize_pessimistic();
  if (auto* checker = cluster_.checker()) checker->on_session_reset(id());
  if (mode_ == Mode::kManual) {
    manual_session_closed_ = true;
    return;
  }
  // A SessionClosed can arrive for an operation this client already
  // abandoned (fault injection: a stale transaction replayed from a crashed
  // node's backlog aborts long after the op timed out). The session reset
  // above still applies, but there is no in-flight op to retry — scheduling
  // one would race the closed loop's own next-op event.
  if (stopped_ || !was_awaiting) return;
  cluster_.simulator().schedule(kReconnectDelayUs, [this] {
    if (!awaiting_reply_) issue_op(current_op_);  // retry under the new session
  });
}

void SimClient::on_op_timeout(std::uint64_t seq) {
  if (stopped_ || !awaiting_reply_ || seq != op_seq_) return;
  // No reply after the give-up deadline: the request (or its answer) died
  // with a crashed server. The client library behaves as after a
  // SessionClosed — re-initialize the session and retry the operation under
  // it. A late reply from the old attempt is absorbed like any other reply
  // (the session reset already forgot the old causal past, so it stays
  // consistent); the superseded attempt's answer is then dropped as stale.
  ++fallbacks_;
  awaiting_reply_ = false;
  engine_.reinitialize_pessimistic();
  if (auto* checker = cluster_.checker()) checker->on_session_reset(id());
  cluster_.simulator().schedule(kReconnectDelayUs, [this] {
    if (!awaiting_reply_ && !stopped_) issue_op(current_op_);
  });
}

void SimClient::handle_reply(proto::Message m) {
  const Duration latency = cluster_.simulator().now() - issued_at_;
  auto* checker = cluster_.checker();
  workload::OpType type;
  // Replies echo the request's op_id; anything else answers an operation
  // this session already abandoned (timed out during a fault window and
  // retried under a fresh session) — the RPC layer discards it.
  if (std::holds_alternative<proto::GetReply>(m)) {
    const auto& reply = std::get<proto::GetReply>(m);
    if (reply.client != id() || reply.op_id != op_seq_) return;
    if (checker != nullptr) checker->on_get_reply(id(), reply);
    engine_.absorb_get(reply);
    type = workload::OpType::kGet;
  } else if (std::holds_alternative<proto::PutReply>(m)) {
    const auto& reply = std::get<proto::PutReply>(m);
    if (reply.client != id() || reply.op_id != op_seq_) return;
    if (checker != nullptr) checker->on_put_reply(id(), reply);
    engine_.absorb_put(reply);
    type = workload::OpType::kPut;
  } else if (std::holds_alternative<proto::RoTxReply>(m)) {
    const auto& reply = std::get<proto::RoTxReply>(m);
    if (reply.client != id() || reply.op_id != op_seq_) return;
    if (checker != nullptr) checker->on_tx_reply(id(), reply);
    engine_.absorb_ro_tx(reply);
    type = workload::OpType::kRoTx;
  } else {
    POCC_ASSERT_MSG(false, "client received unexpected message type");
    return;
  }
  awaiting_reply_ = false;
  record_latency(type, latency);

  // Session promotion (§III-B): once the partition healed, the session can be
  // promoted back to the optimistic protocol. The client library probes the
  // connectivity state; promotion keeps the session's dependency vectors.
  if (engine_.pessimistic() && !cluster_.has_active_partitions()) {
    engine_.promote_optimistic();
    if (checker != nullptr) checker->on_session_promoted(id());
  }

  if (mode_ == Mode::kManual) {
    manual_reply_ = std::move(m);
    return;
  }
  if (stopped_) return;
  cluster_.simulator().schedule(generator_->think_time(),
                                [this] { issue_next_workload_op(); });
}

SimClient::GetResult SimClient::get(const std::string& key,
                                    Duration max_wait) {
  POCC_ASSERT(mode_ == Mode::kManual);
  manual_reply_.reset();
  manual_session_closed_ = false;
  workload::Op op;
  op.type = workload::OpType::kGet;
  op.keys.push_back(store::intern_key(key));
  issue_op(op);
  cluster_.pump_until(
      [this] { return manual_reply_.has_value() || manual_session_closed_; },
      max_wait);
  GetResult r;
  if (!manual_reply_.has_value()) {
    awaiting_reply_ = false;
    return r;  // timed out or session closed
  }
  const auto& reply = std::get<proto::GetReply>(*manual_reply_);
  r.ok = true;
  r.found = reply.item.found;
  r.value = reply.item.value;
  r.ut = reply.item.ut;
  r.sr = reply.item.sr;
  r.blocked_us = reply.blocked_us;
  return r;
}

SimClient::PutResult SimClient::put(const std::string& key,
                                    const std::string& value,
                                    Duration max_wait) {
  POCC_ASSERT(mode_ == Mode::kManual);
  manual_reply_.reset();
  manual_session_closed_ = false;
  workload::Op op;
  op.type = workload::OpType::kPut;
  op.keys.push_back(store::intern_key(key));
  op.value = value;
  issue_op(op);
  cluster_.pump_until(
      [this] { return manual_reply_.has_value() || manual_session_closed_; },
      max_wait);
  PutResult r;
  if (!manual_reply_.has_value()) {
    awaiting_reply_ = false;
    return r;
  }
  const auto& reply = std::get<proto::PutReply>(*manual_reply_);
  r.ok = true;
  r.ut = reply.ut;
  r.blocked_us = reply.blocked_us;
  return r;
}

SimClient::TxResult SimClient::ro_tx(const std::vector<std::string>& keys,
                                     Duration max_wait) {
  POCC_ASSERT(mode_ == Mode::kManual);
  manual_reply_.reset();
  manual_session_closed_ = false;
  workload::Op op;
  op.type = workload::OpType::kRoTx;
  op.keys.reserve(keys.size());
  for (const std::string& k : keys) op.keys.push_back(store::intern_key(k));
  issue_op(op);
  cluster_.pump_until(
      [this] { return manual_reply_.has_value() || manual_session_closed_; },
      max_wait);
  TxResult r;
  if (!manual_reply_.has_value()) {
    awaiting_reply_ = false;
    return r;
  }
  auto& reply = std::get<proto::RoTxReply>(*manual_reply_);
  r.ok = true;
  r.items = std::move(reply.items);
  r.blocked_us = reply.blocked_us;
  return r;
}

}  // namespace pocc::cluster
