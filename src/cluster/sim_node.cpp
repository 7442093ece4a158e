#include "cluster/sim_node.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "wal/wal_format.hpp"

namespace pocc::cluster {

SimNode::SimNode(NodeId self, const ServiceConfig& service,
                 const ClockConfig& clock_cfg, sim::Simulator& simulator,
                 net::SimNetwork& network, Rng& seeder,
                 EngineFactory make_engine)
    : self_(self),
      sim_(simulator),
      net_(network),
      cpu_(simulator, service.cores, service.background_share_den),
      clock_(clock_cfg, seeder),
      make_engine_(std::move(make_engine)) {
  engine_ = make_engine_(self_, *this);
  net_.register_node(self_, this);
}

namespace {
/// Client-facing traffic (requests and the RO-TX slice path) takes the
/// foreground CPU class; replication, heartbeats, stabilization and GC take
/// the background class and lag under load like a real server's maintenance
/// path (see sim/cpu_queue.hpp).
bool is_foreground(const proto::Message& m) {
  switch (m.index()) {
    case 0:   // GetReq
    case 1:   // PutReq
    case 2:   // RoTxReq
    case 9:   // SliceReq
    case 10:  // SliceReply
      return true;
    default:
      return false;
  }
}

/// Client-originated requests die with a crashed process (the connection is
/// refused; the client library reconnects). Everything else is
/// server-to-server stream traffic, which survives crashes in the peers'
/// durable logs (see SimNode::crash).
bool is_client_request(const proto::Message& m) {
  return std::holds_alternative<proto::GetReq>(m) ||
         std::holds_alternative<proto::PutReq>(m) ||
         std::holds_alternative<proto::RoTxReq>(m);
}
}  // namespace

void SimNode::start() { engine_->start(); }

void SimNode::crash() {
  POCC_ASSERT_MSG(!down_, "node crashed twice without restart");
  down_ = true;
  crash_image_ = wal::encode_snapshot(engine_->partition_store(),
                                      engine_->version_vector());
  // Invalidate every pending CPU job and timer: the process they belonged to
  // is gone. Parked message slots are recycled when the dead jobs drain.
  ++epoch_;
  // Sweep messages that were delivered but not yet processed (their CPU jobs
  // just died) into the crash backlog, in arrival order: server streams ride
  // the peers' durable logs, so an unprocessed message is retransmitted, not
  // lost. Without this sweep a crash arriving shortly after a restart would
  // destroy the previous backlog replay while it was still queued — found by
  // the cluster-fuzz harness (double-crash plans). Client requests die with
  // the connection, as on any crash.
  std::vector<std::uint32_t> live;
  for (std::uint32_t i = 0; i < parked_messages_.size(); ++i) {
    if (parked_messages_[i].live) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
    return parked_messages_[a].seq < parked_messages_[b].seq;
  });
  for (const std::uint32_t idx : live) {
    ParkedMsg& p = parked_messages_[idx];
    p.live = false;  // the dead job's unpark recycles the slot later
    if (is_client_request(p.msg)) {
      net_.count_dropped();
      continue;
    }
    crash_backlog_.emplace_back(p.from, std::move(p.msg));
  }
}

std::uint64_t SimNode::restart() {
  POCC_ASSERT_MSG(down_, "restart of a node that is up");
  down_ = false;
  // The process image — engine object included — is gone: rebuild the
  // engine and restore the durable image the way poccd restores a
  // checkpoint. The restored VV equals the pre-crash VV, so the FIFO backlog
  // replayed below still lands in timestamp order.
  const std::vector<std::uint8_t> bytes = std::exchange(crash_image_, {});
  const auto image = wal::decode_snapshot(bytes.data(), bytes.size());
  POCC_ASSERT_MSG(image.has_value(), "crash image failed to decode");
  engine_ = make_engine_(self_, *this);
  for (const store::Version& v : image->versions) engine_->restore_version(v);
  engine_->restore_vv(image->vv);
  // Timers armed before the crash carry the old epoch and are dead; re-arm.
  engine_->start();
  // Rebuild from peers: replay the backlogged replication/maintenance
  // streams (held by the peers' durable logs while this process was dead) in
  // arrival order, which equals per-channel FIFO send order. The replay is
  // synchronous — one atomic recovery burst inside the restart event — so no
  // later fault can land between "restarted" and "caught up" and tear the
  // stream (the CPU-queue path would leave exactly that window).
  std::uint64_t recovered = 0;
  std::deque<std::pair<NodeId, proto::Message>> backlog;
  backlog.swap(crash_backlog_);
  for (auto& [from, msg] : backlog) {
    if (std::holds_alternative<proto::Replicate>(msg)) ++recovered;
    engine_->handle_message(from, std::move(msg));
  }
  return recovered;
}

std::uint32_t SimNode::park_message(NodeId from, proto::Message m) {
  std::uint32_t idx;
  if (!parked_free_.empty()) {
    idx = parked_free_.back();
    parked_free_.pop_back();
    parked_messages_[idx].msg = std::move(m);
  } else {
    parked_messages_.push_back(ParkedMsg{std::move(m), from, 0, false});
    idx = static_cast<std::uint32_t>(parked_messages_.size() - 1);
  }
  ParkedMsg& p = parked_messages_[idx];
  p.from = from;
  p.seq = next_arrival_seq_++;
  p.live = true;
  return idx;
}

proto::Message SimNode::unpark_message(std::uint32_t idx) {
  ParkedMsg& p = parked_messages_[idx];
  proto::Message m = std::move(p.msg);
  p.live = false;
  parked_free_.push_back(idx);
  return m;
}

void SimNode::deliver(NodeId from, proto::Message m) {
  if (down_) {
    // Client requests bounce (connection refused; the client library
    // reconnects under a fresh session). Server-to-server streams are
    // lossless across the crash: the peer's durable replication log holds
    // the traffic until this process is back (see crash()).
    if (is_client_request(m)) {
      net_.count_dropped();
      return;
    }
    crash_backlog_.emplace_back(from, std::move(m));
    return;
  }
  // Message handling contends for this node's CPU: the handler runs when a
  // core picks the job up, and the job reports the CPU time it consumed.
  // The message is parked (moved, not copied) in this node's pool; the job
  // captures only its index, staying within the slim CPU-job inline budget.
  const bool fg = is_foreground(m);
  const std::uint32_t idx = park_message(from, std::move(m));
  auto job = [this, from, idx, ep = epoch_]() -> Duration {
    proto::Message msg = unpark_message(idx);  // always recycle the slot
    if (ep != epoch_) return 0;  // job outlived its process (crash)
    return engine_->handle_message(from, std::move(msg));
  };
  static_assert(sim::CpuQueue::Job::stores_inline<decltype(job)>,
                "message-handler job no longer fits the CPU queue's inline "
                "job storage");
  if (fg) {
    cpu_.submit(std::move(job));
  } else {
    cpu_.submit_background(std::move(job));
  }
}

void SimNode::set_timer(Duration delay, std::uint64_t timer_id) {
  // Timers run foreground: heartbeat/stabilization *sending* is cheap and
  // keeps flowing on a loaded server (dedicated sender threads in real
  // systems); it is the receive/apply path that lags under load.
  sim_.schedule(delay, [this, timer_id, ep = epoch_] {
    if (ep != epoch_) return;  // timer armed by a crashed incarnation
    cpu_.submit([this, timer_id, ep]() -> Duration {
      if (ep != epoch_) return 0;
      return engine_->on_timer(timer_id);
    });
  });
}

}  // namespace pocc::cluster
