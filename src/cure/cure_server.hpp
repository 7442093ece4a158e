// Cure* — the pessimistic baseline (paper §V: "a reimplementation of Cure
// [ICDCS'16], a state-of-the-art causally consistent system based on vector
// clocks", augmented with GET/PUT support).
//
// Pessimistic visibility: nodes within a DC periodically exchange their
// version vectors and compute the aggregate minimum, the Global Stable
// Snapshot (GSS). A remote item d becomes visible only once it is *stable*:
// all of its dependencies (and d itself) lie below the GSS. Local items are
// always visible. A GET therefore has to search the version chain for the
// freshest stable version — the chain-traversal and stabilization overheads
// that POCC eliminates, and the source of the data staleness measured in
// Fig. 2b / 3d.
//
// Meta-data is identical to POCC's (one physical timestamp per DC in every
// message), making the comparison fair (§V).
#pragma once

#include "server/replica_base.hpp"

namespace pocc {

class CureServer : public server::ReplicaBase {
 public:
  CureServer(NodeId self, const TopologyConfig& topology,
             const ProtocolConfig& protocol, const ServiceConfig& service,
             server::Context& ctx);

  void start() override;
  Duration on_timer(std::uint64_t timer_id) override;

  [[nodiscard]] const VersionVector& gss() const { return gss_; }

 protected:
  /// A version is stable in this DC iff its commit vector (dv with the source
  /// entry raised to ut) is below the GSS on every *remote* coordinate.
  /// Local items are always visible, and — for the same reason — the local
  /// coordinate of a remote version's commit vector is skipped: it names
  /// dependencies on this DC's own items, which are visible here regardless
  /// of stabilization progress. Testing it against the (lagging) GSS made
  /// GET visibility stricter than the RO-TX rule (whose TV raises the local
  /// entry to the coordinator's VV): a transaction could return a version
  /// that a later GET hides — a monotonic-reads violation the cluster-fuzz
  /// harness caught when a crashed partition froze the DC's GSS minimum.
  [[nodiscard]] bool stable(const store::Version& v) const {
    if (v.sr == local_dc()) return true;
    return gss_.dominates(v.commit_vector(), skip_local());
  }

  /// Reads wait until the GSS covers the client's read dependencies
  /// (remote entries only; local dependencies are trivially satisfied).
  [[nodiscard]] bool get_ready(const proto::GetReq& req) const override {
    return gss_.dominates(req.rdv, skip_local());
  }

  /// Freshest *stable* version: traverses the chain, skipping unstable
  /// versions (the returned item may be "old" — Fig. 2b).
  proto::ReadItem choose_get_version(const proto::GetReq& req) override;

  /// Transaction snapshots are bounded by the GSS for remote entries (items
  /// must be stable) and by the node's VV locally (local items are always
  /// visible), raised by the client's read dependencies.
  [[nodiscard]] VersionVector compute_tx_snapshot(
      const proto::RoTxReq& req) const override;

  /// Pessimistic slice visibility: the version and all its dependencies must
  /// lie inside the (stable) snapshot — the FULL commit vector, local
  /// coordinate included. The local bound is what keeps sibling slices
  /// mutually consistent (a local item written after the transaction started
  /// must not leak into a late slice — cluster fuzz caught exactly that when
  /// this test briefly skipped the local coordinate). Unlike the GET path,
  /// no monotonic-reads hazard arises from the full test: TV includes the
  /// client's read vector, and RDV dominance is transitive along read/write
  /// chains, so every version in the client's causal past is coordinate-wise
  /// covered by TV.
  [[nodiscard]] bool slice_visible(const store::Version& v,
                                   const VersionVector& tv,
                                   bool pessimistic) const override {
    (void)pessimistic;  // every Cure* session is pessimistic
    return v.commit_vector().leq(tv);
  }

  /// Staleness metric: number of not-yet-stable versions in the chain.
  [[nodiscard]] std::uint32_t count_unmerged(
      const store::VersionChain& chain) const override {
    return chain.count_unstable([this](const store::Version& v) {
      return stable(v);
    });
  }

  /// GC floor follows the GSS: any future snapshot is >= the DC-wide minimum
  /// of the GSS, so the newest version with cv <= GV plus everything fresher
  /// must be retained.
  [[nodiscard]] VersionVector gc_watermark() const override { return gss_; }
  [[nodiscard]] bool gc_version_at_floor(
      const store::Version& v, const VersionVector& gv) const override {
    return v.commit_vector().leq(gv);
  }

  Duration on_stab_report(const proto::StabReport& msg) override;
  Duration on_gss_broadcast(const proto::GssBroadcast& msg) override;

  [[nodiscard]] bool is_stab_aggregator() const { return self_.part == 0; }

  /// Interval between stabilization rounds (HA-POCC reuses this machinery
  /// with a much longer interval, §IV-C).
  [[nodiscard]] virtual Duration stabilization_interval() const {
    return protocol_.stabilization_interval_us;
  }

  VersionVector gss_;
  std::unordered_map<PartitionId, VersionVector> stab_reports_;
};

}  // namespace pocc
