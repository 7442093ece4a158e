// Shared machinery for the POCC and Cure* server engines.
//
// Both systems share (paper §V: "the two mainly differ in that POCC does not
// run any stabilization protocol and does not need to search for a stable
// version of a key when serving a GET"):
//   * the multiversion store and LWW convergent conflict handling,
//   * the PUT path (clock wait, version creation, asynchronous replication in
//     timestamp order),
//   * update replication and heartbeats driving the version vector,
//   * the RO-TX coordinator/slice structure,
//   * the intra-DC garbage-collection exchange.
// They differ in the visibility rule and in the wait conditions, expressed
// here as virtual hooks overridden by PoccServer / CureServer / HaPoccServer.
//
// Every handler returns the CPU time it consumed (per the ServiceConfig cost
// model); the discrete-event host feeds this into the node's CpuQueue.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"
#include "server/context.hpp"
#include "server/parking_lot.hpp"
#include "stats/registry.hpp"
#include "store/partition_store.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::server {

/// Timer identifiers used by engines (hosts just echo them back).
enum TimerId : std::uint64_t {
  // Δ tick of the idle heartbeat (Alg. 2 lines 19-26). VV[m] also moves
  // with PUTs and with the runtime host's pass promises
  // (promise_heartbeat()), which leave the tick nothing to send while busy.
  kTimerHeartbeat = 1,
  kTimerGc = 2,
  kTimerStabilization = 3,
  kTimerClockWait = 4,
  kTimerExpire = 5,
};

class ReplicaBase {
 public:
  ReplicaBase(NodeId self, const TopologyConfig& topology,
              const ProtocolConfig& protocol, const ServiceConfig& service,
              Context& ctx);
  virtual ~ReplicaBase() = default;

  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;

  /// Arm periodic timers. Call once before the first event.
  virtual void start();

  // --- WAL restore + peer recovery (src/wal/, net/tcp_node_host.cpp) ---

  /// Re-install one version from a WAL/snapshot replay: idempotent store
  /// insert (the chain dedupes on (ut, sr)) + VV raise — exactly what
  /// serve_put/on_replicate did originally, minus replication, observers and
  /// durability logging. Only legal before start().
  void restore_version(const store::Version& v);

  /// Merge a WAL-replayed VV record (heartbeat-driven raises).
  void restore_vv(const VersionVector& vv);

  /// Ask every sibling replica for the replication suffix lost past the
  /// durable cut (vv_ as restored): sends RecoveryReq per peer DC and closes
  /// the recovery gate (recovering()) for up to `gate_us`. Also makes
  /// on_replicate tolerate below-VV duplicates permanently: recovery answers
  /// and live replication race on independent FIFO links, so the
  /// timestamp-order invariant of a single channel no longer covers the
  /// merged stream. Call before the engine's thread runs.
  void begin_peer_recovery(Duration gate_us);

  /// The recovery gate: true while a sibling DC still owes its RecoveryDone
  /// and the gate's deadline has not passed (the first Δ tick past it opens
  /// the gate). While it holds, heartbeats are muted — a heartbeat promises
  /// "every update <= ts was sent", and right after a crash some of those
  /// sends died in flight — and client work (GET, PUT, RO-TX, SliceReq) is
  /// held, so no client reads state older than what it saw before the
  /// crash. Safe to read from any thread.
  [[nodiscard]] bool recovering() const { return recovering_dcs_ > 0; }

  /// Dispatch any message (client request, replica traffic). Returns CPU time
  /// consumed by the handler, including any parked work it resumed. Client
  /// work that arrives while recovering() is parked until the gate opens and
  /// then handled in arrival order.
  Duration handle_message(NodeId from, proto::Message m);

  /// Timer callback. Returns CPU time consumed.
  virtual Duration on_timer(std::uint64_t timer_id);

  /// Pass promise (the runtime host, rt::NodeGroup): when VV[m] is below
  /// `ts` and a fresh clock reading is at or past it, broadcast
  /// Heartbeat{m, ts} through heartbeat() — so sibling partitions of one
  /// DC promise the same timestamp in the frame that carries the newest
  /// Replicate. Returns CPU time consumed.
  Duration promise_heartbeat(Timestamp ts);

  // --- observers (tests, hosts) ---
  // Counts (ops served, blocking, staleness, heartbeats) are not observed
  // here: they are the pocc_engine_* series in the host's registry.
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const VersionVector& version_vector() const { return vv_; }
  [[nodiscard]] const store::PartitionStore& partition_store() const {
    return store_;
  }
  [[nodiscard]] std::size_t parked_requests() const { return lot_.size(); }

  /// An op "blocks" when it is parked because a dependency has not been
  /// received yet (§V-B "Blocking dynamics"). Stalls longer than this count
  /// as "macro" blocking — the granularity a real deployment's measurement
  /// would register (sub-ms parking caused by inter-partition VV skew is
  /// indistinguishable from scheduling noise).
  static constexpr Duration kMacroBlockingUs = 1'000;

  /// Observer invoked whenever a PUT creates a version (used by the history
  /// checker to register versions the instant they become readable). The
  /// second argument is the creating PutReq's op_id (RPC framing), so the
  /// observer can attribute the version to the exact request that made it.
  using VersionObserver =
      std::function<void(ClientId, std::uint64_t, const store::Version&)>;
  void set_version_observer(VersionObserver obs) {
    version_observer_ = std::move(obs);
  }

 protected:
  // ----- protocol-specific hooks -----

  /// True when a GET can be served without stalling (POCC Alg. 2 line 2;
  /// Cure* checks the GSS instead; HA-POCC switches on req.pessimistic).
  [[nodiscard]] virtual bool get_ready(const proto::GetReq& req) const = 0;

  /// Pick the version to return for a GET and fill the measurement fields.
  /// May assume get_ready(req) holds. Must charge chain hops.
  virtual proto::ReadItem choose_get_version(const proto::GetReq& req) = 0;

  /// Snapshot vector for a read-only transaction (POCC Alg. 2 line 32:
  /// max(VV, RDV); Cure*: GSS-based).
  [[nodiscard]] virtual VersionVector compute_tx_snapshot(
      const proto::RoTxReq& req) const = 0;

  /// True when a slice against `tv` can be served (Alg. 2 line 40): VV
  /// covers the remote entries, and local_entry_covered() the local one.
  [[nodiscard]] bool slice_ready(const VersionVector& tv);

  /// Visibility of a version within snapshot `tv` (Alg. 2 line 43 for POCC;
  /// commit-vector rule for Cure* and for HA-POCC's pessimistic sessions).
  [[nodiscard]] virtual bool slice_visible(const store::Version& v,
                                           const VersionVector& tv,
                                           bool pessimistic) const = 0;

  /// Count of not-yet-stable versions in a chain (staleness metric). POCC has
  /// no stability notion during GETs and returns 0.
  [[nodiscard]] virtual std::uint32_t count_unmerged(
      const store::VersionChain& chain) const;

  /// Low watermark this node contributes to the GC exchange.
  [[nodiscard]] virtual VersionVector gc_watermark() const;

  /// Deadline for parked requests (0 = none). HA-POCC overrides with the
  /// partition-suspicion timeout.
  [[nodiscard]] virtual Duration park_deadline() const { return 0; }

  /// Called when a parked request expires (HA-POCC closes the session).
  virtual void on_park_timeout(ClientId client, Duration blocked_us);

  /// Extra visibility restriction applied when a *pessimistic* session reads
  /// a slice under HA-POCC (optimistically-created local items must be
  /// stable). The test MUST be a function of `v` and the transaction
  /// snapshot `tv` only — never of node-local state like the GSS: two slice
  /// nodes of one transaction can hold different GSS views, and a
  /// node-dependent predicate lets one slice return an item whose causal
  /// past a sibling slice hides, breaking the snapshot property (found by
  /// the cluster-fuzz harness).
  [[nodiscard]] virtual bool visible_to_pessimistic(
      const store::Version& v, const VersionVector& tv) const;

  /// Whether versions created by this PUT carry the optimistic-origin tag
  /// (HA-POCC §IV-C). Base protocols never tag.
  [[nodiscard]] virtual bool mark_opt_origin(const proto::PutReq& req) const;

  /// GC retention floor: true when `v` is at or below the aggregate GC vector
  /// (POCC: dv <= GV, Alg. §IV-B; Cure*: commit vector <= GV).
  [[nodiscard]] virtual bool gc_version_at_floor(const store::Version& v,
                                                 const VersionVector& gv) const;

  /// Called when a parked slice expires (HA-POCC aborts the transaction).
  virtual void on_slice_timeout(std::uint64_t tx_id, NodeId coordinator,
                                Duration blocked_us);

  // ----- shared handler implementations -----
  /// Run the handler for `m` (handle_message() minus the recovery hold).
  void dispatch(NodeId from, proto::Message m);
  /// Count one served (or, under HA-POCC, expired) GET/PUT/slice that
  /// waited `blocked_us` (0 = served without parking).
  void record_blocking(Duration blocked_us);
  /// Count one returned item's staleness (§V-B): "old" when a fresher
  /// version exists in its chain, "unmerged" when some version of it is not
  /// yet stable.
  void record_read(const proto::ReadItem& item);
  Duration on_get(const proto::GetReq& req);
  Duration on_put(const proto::PutReq& req);
  Duration on_replicate(const proto::Replicate& msg);
  Duration on_heartbeat(NodeId from, const proto::Heartbeat& msg);
  Duration on_ro_tx(const proto::RoTxReq& req);
  Duration on_slice_req(NodeId from, const proto::SliceReq& req);
  Duration on_slice_reply(NodeId from, const proto::SliceReply& msg);
  Duration on_gc_report(const proto::GcReport& msg);
  Duration on_gc_vector(const proto::GcVector& msg);
  virtual Duration on_stab_report(const proto::StabReport& msg);
  virtual Duration on_gss_broadcast(const proto::GssBroadcast& msg);
  Duration on_recovery_req(const proto::RecoveryReq& req);
  Duration on_recovery_version(const proto::RecoveryVersion& msg);
  Duration on_recovery_done(const proto::RecoveryDone& msg);

  void serve_get(const proto::GetReq& req, Duration blocked_us);
  [[nodiscard]] bool put_ready(const proto::PutReq& req) const;
  void serve_put(const proto::PutReq& req, Duration blocked_us);
  void dispatch_slice(std::uint64_t tx_id, NodeId coordinator,
                      const std::vector<KeyId>& keys, const VersionVector& tv,
                      bool pessimistic);
  void serve_slice(std::uint64_t tx_id, NodeId coordinator,
                   const std::vector<KeyId>& keys, const VersionVector& tv,
                   bool pessimistic, Duration blocked_us);
  void accumulate_slice(std::uint64_t tx_id,
                        std::vector<proto::ReadItem> items,
                        Duration blocked_us);
  void finish_tx_if_complete(std::uint64_t tx_id);

  /// Read a single key against snapshot `tv` (shared by slices).
  proto::ReadItem read_in_snapshot(KeyId key, const VersionVector& tv,
                                   bool pessimistic);

  /// Alg. 2 lines 19-26, shared by the Δ timer and promise_heartbeat():
  /// raise VV[m] to `ts`, log it, and send Heartbeat{m, ts} to every
  /// sibling replica. The caller vouches that every local version <= ts was
  /// sent and every later one is stamped past ts. False (nothing sent)
  /// while recovering().
  bool heartbeat(Timestamp ts);

  /// True once every local version <= ts is installed: VV[m] or a clock
  /// reading is at or past ts. Takes a fresh reading when the clock has
  /// passed ts, else arms a clock wakeup.
  bool local_entry_covered(Timestamp ts);
  /// clock_now(), kept in clock_read_.
  Timestamp read_clock();

  /// Re-evaluate parked requests after VV/GSS/clock advances.
  void poke();

  /// Add `d` microseconds of CPU work to the current handler.
  void charge(Duration d) { work_ += d; }

  /// Arm a one-shot wakeup so clock-condition waits make progress even on an
  /// otherwise idle node.
  void arm_clock_wakeup(Timestamp clock_target);

  /// Arm the deadline timer for parked requests (HA-POCC only).
  void arm_expiry();

  [[nodiscard]] DcId local_dc() const { return self_.dc; }
  [[nodiscard]] std::int32_t skip_local() const {
    return static_cast<std::int32_t>(self_.dc);
  }
  [[nodiscard]] bool is_gc_aggregator() const { return self_.part == 0; }

  // ----- state -----
  NodeId self_;
  TopologyConfig topology_;
  ProtocolConfig protocol_;
  ServiceConfig service_;
  Context& ctx_;

  VersionVector vv_;             // version vector VV^m_n (paper §IV-A)
  // Latest clock_now() reading not stamped on a version. Kept apart from
  // vv_[m]: raising VV[m] to it would postpone the timer's heartbeats.
  Timestamp clock_read_ = kTimestampMin;
  store::PartitionStore store_;  // this partition's version chains
  ParkingLot lot_;

  /// This partition's series in ctx_.registry(), registered at
  /// construction under the names and labels poccd exports; the simulator
  /// reads the same ones (SimCluster::end_measurement).
  struct Series {
    stats::Counter* gets = nullptr;
    stats::Counter* puts = nullptr;
    stats::Counter* slices = nullptr;
    stats::Counter* blocking_ops = nullptr;   // GETs, PUTs and slices
    stats::Counter* blocked = nullptr;        // ... that parked at all
    stats::Counter* blocked_macro = nullptr;  // ... > kMacroBlockingUs
    stats::HistogramCell* blocked_us = nullptr;  // parked ops only
    stats::Counter* timer_heartbeats = nullptr;
    stats::Counter* pass_heartbeats = nullptr;
    stats::Counter* reads = nullptr;           // items GETs/slices returned
    stats::Counter* old_reads = nullptr;
    stats::Counter* unmerged_reads = nullptr;
    stats::Counter* fresher_versions = nullptr;   // summed over old reads
    stats::Counter* unmerged_versions = nullptr;  // summed over unmerged
    stats::Gauge* recovery_gate_expired = nullptr;
    stats::Gauge* gc_floor_us = nullptr;  // min entry of the last GC vector
  };
  Series series_;

  /// In-flight read-only transactions this node coordinates.
  struct PendingTx {
    ClientId client = 0;
    std::uint64_t op_id = 0;  // echoed into the RoTxReply (RPC framing)
    VersionVector tv;
    std::uint32_t awaiting = 0;
    std::vector<proto::ReadItem> items;
    Duration max_blocked_us = 0;
  };
  std::unordered_map<std::uint64_t, PendingTx> pending_tx_;
  std::uint64_t next_tx_seq_ = 0;

  /// Latest GC reports per partition (aggregator role, partition 0).
  std::unordered_map<PartitionId, VersionVector> gc_reports_;

  Duration work_ = 0;  // CPU time accumulated by the current handler
  bool clock_wakeup_armed_ = false;
  Timestamp armed_clock_target_ = kTimestampMax;
  VersionObserver version_observer_;

  /// Sibling DCs whose RecoveryDone is still outstanding; zeroed when the
  /// gate opens at its deadline (a dead sibling must not hold this replica
  /// forever). Atomic so the host's /readyz may read it.
  std::atomic<std::uint32_t> recovering_dcs_{0};
  Timestamp recovery_gate_until_ = 0;  // fixed by begin_peer_recovery()
  /// Set by begin_peer_recovery(): on_replicate accepts versions below the
  /// VV as idempotent duplicates instead of asserting channel order.
  bool fifo_tolerant_ = false;
};

}  // namespace pocc::server
