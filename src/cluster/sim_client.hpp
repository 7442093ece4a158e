// Simulated client session: either a closed-loop workload driver (the paper's
// benchmark clients, §V-A: collocated with a server, think time between
// operations) or a manually driven client with blocking calls (tests and
// examples).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_engine.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/sim_network.hpp"
#include "stats/histogram.hpp"
#include "workload/workload.hpp"

namespace pocc::cluster {

class SimCluster;

class SimClient final : public net::Endpoint {
 public:
  enum class Mode { kWorkload, kManual };

  SimClient(ClientId id, DcId dc, NodeId home, Mode mode, SimCluster& cluster,
            Rng rng, bool snapshot_rdv);

  /// Workload mode: install the generator and schedule the first operation.
  void start_workload(const workload::WorkloadConfig& wl);

  /// Stop issuing new operations after the current one completes.
  void stop() { stopped_ = true; }

  // ----- manual (blocking) operations -----
  struct GetResult {
    bool ok = false;       // reply received (false: timed out / session closed)
    bool found = false;    // an explicit version exists
    std::string value;
    Timestamp ut = 0;
    DcId sr = 0;
    Duration blocked_us = 0;
  };
  struct PutResult {
    bool ok = false;
    Timestamp ut = 0;
    Duration blocked_us = 0;
  };
  struct TxResult {
    bool ok = false;
    std::vector<proto::ReadItem> items;
    Duration blocked_us = 0;
  };

  // Manual operations intern their keys at this boundary; everything below
  // carries KeyIds.
  GetResult get(const std::string& key, Duration max_wait = 600'000'000);
  PutResult put(const std::string& key, const std::string& value,
                Duration max_wait = 600'000'000);
  TxResult ro_tx(const std::vector<std::string>& keys,
                 Duration max_wait = 600'000'000);

  // ----- observers -----
  [[nodiscard]] ClientId id() const { return engine_.id(); }
  [[nodiscard]] DcId dc() const { return engine_.dc(); }
  client::ClientEngine& engine() { return engine_; }
  /// Latencies of the ops completed while the cluster measured.
  [[nodiscard]] const stats::Histogram& get_latency_us() const {
    return get_latency_us_;
  }
  [[nodiscard]] const stats::Histogram& put_latency_us() const {
    return put_latency_us_;
  }
  [[nodiscard]] const stats::Histogram& tx_latency_us() const {
    return tx_latency_us_;
  }
  [[nodiscard]] std::uint64_t completed_ops() const { return completed_; }
  [[nodiscard]] std::uint64_t session_fallbacks() const { return fallbacks_; }
  void reset_stats() {
    get_latency_us_.reset();
    put_latency_us_.reset();
    tx_latency_us_.reset();
    completed_ = 0;
  }

  // --- net::Endpoint ---
  void deliver(NodeId from, proto::Message m) override;

 private:
  void issue_next_workload_op();
  void issue_op(const workload::Op& op);
  void handle_reply(proto::Message m);
  void handle_session_closed(const proto::SessionClosed& msg);
  /// Watchdog for workload ops under fault injection: fires
  /// WorkloadConfig::op_timeout_us after issue; a still-unanswered operation
  /// is presumed lost (crashed server), the session re-initializes and the
  /// operation is retried.
  void on_op_timeout(std::uint64_t seq);
  void record_latency(workload::OpType type, Duration latency);
  [[nodiscard]] NodeId target_for_key(KeyId key) const;

  client::ClientEngine engine_;
  NodeId home_;
  Mode mode_;
  SimCluster& cluster_;
  Rng rng_;
  std::unique_ptr<workload::Generator> generator_;

  bool stopped_ = false;
  bool awaiting_reply_ = false;
  workload::Op current_op_;
  Timestamp issued_at_ = 0;
  std::uint64_t op_seq_ = 0;  // distinguishes watchdog targets across retries

  // Manual-mode reply capture.
  std::optional<proto::Message> manual_reply_;
  bool manual_session_closed_ = false;

  stats::Histogram get_latency_us_;
  stats::Histogram put_latency_us_;
  stats::Histogram tx_latency_us_;
  std::uint64_t completed_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace pocc::cluster
