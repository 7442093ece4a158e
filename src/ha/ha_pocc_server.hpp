// HA-POCC — highly available POCC (paper §III-B and §IV-C).
//
// Normal operation is plain POCC. In addition:
//   * An infrequent stabilization protocol (the same VV-min exchange Cure
//     runs, but at a much longer period) maintains a Global Stable Snapshot,
//     kept only so the system can *fall back* to a pessimistic protocol.
//   * Requests parked for longer than a configurable timeout indicate a
//     suspected network partition: the server closes the client's session
//     (SessionClosed); the client re-initializes in pessimistic mode.
//   * Pessimistic sessions are served with Cure's visibility rules. Local
//     items created by *optimistic* clients may depend on unreplicated remote
//     items, so they carry an opt_origin tag and are visible to pessimistic
//     sessions only once stable (§IV-C).
//   * Garbage collection follows Cure's rule (keep the oldest version the
//     pessimistic protocol could access).
//   * After an unrecoverable DC loss, discard_lost_updates() drops versions
//     that depend on updates that will never arrive (the "lost update"
//     phenomenon, §III-B), letting the system resume optimistic operation.
#pragma once

#include "pocc/pocc_server.hpp"

namespace pocc {

class HaPoccServer : public PoccServer {
 public:
  HaPoccServer(NodeId self, const TopologyConfig& topology,
               const ProtocolConfig& protocol, const ServiceConfig& service,
               server::Context& ctx);

  void start() override;
  Duration on_timer(std::uint64_t timer_id) override;

  [[nodiscard]] const VersionVector& gss() const { return gss_; }
  [[nodiscard]] std::uint64_t sessions_closed() const {
    return sessions_closed_;
  }

  /// §III-B lost-update recovery: drop every version that depends on an
  /// update from `lost_dc` that this node never received, and cap the version
  /// vector entry so the system can operate without the failed DC. Returns
  /// the number of versions discarded.
  std::uint64_t discard_lost_updates(DcId lost_dc);

 protected:
  // --- per-session protocol switch ---
  [[nodiscard]] bool get_ready(const proto::GetReq& req) const override;
  proto::ReadItem choose_get_version(const proto::GetReq& req) override;
  [[nodiscard]] VersionVector compute_tx_snapshot(
      const proto::RoTxReq& req) const override;
  [[nodiscard]] bool slice_visible(const store::Version& v,
                                   const VersionVector& tv,
                                   bool pessimistic) const override;
  [[nodiscard]] std::uint32_t count_unmerged(
      const store::VersionChain& chain) const override;

  /// §IV-C: a local item created by an optimistic client is shown to
  /// pessimistic sessions only once it is stable. Slices test stability
  /// against the transaction snapshot TV (whose remote entries are
  /// max(GSS at coordination time, client-observed RDV)) rather than this
  /// node's current GSS — a node-local test breaks snapshot consistency
  /// when sibling slice nodes hold skewed GSS views (see ReplicaBase).
  [[nodiscard]] bool visible_to_pessimistic(
      const store::Version& v, const VersionVector& tv) const override;
  [[nodiscard]] bool mark_opt_origin(const proto::PutReq& req) const override {
    return !req.pessimistic;
  }

  // --- partition detection (§III-B) ---
  [[nodiscard]] Duration park_deadline() const override {
    return protocol_.block_timeout_us;
  }
  void on_park_timeout(ClientId client, Duration blocked_us) override;
  void on_slice_timeout(std::uint64_t tx_id, NodeId coordinator,
                        Duration blocked_us) override;

  // --- Cure-style GC (§IV-C) ---
  [[nodiscard]] VersionVector gc_watermark() const override { return gss_; }
  [[nodiscard]] bool gc_version_at_floor(
      const store::Version& v, const VersionVector& gv) const override {
    return v.commit_vector().leq(gv);
  }

  // --- infrequent stabilization ---
  Duration on_stab_report(const proto::StabReport& msg) override;
  Duration on_gss_broadcast(const proto::GssBroadcast& msg) override;

  [[nodiscard]] bool stable(const store::Version& v) const;

  VersionVector gss_;
  std::unordered_map<PartitionId, VersionVector> stab_reports_;
  std::uint64_t sessions_closed_ = 0;
};

}  // namespace pocc
