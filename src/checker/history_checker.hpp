// Online causal-consistency checker.
//
// Observes every version created in the cluster and every client-visible
// operation, and verifies the guarantees of §II-A plus the invariants proved
// in the paper's appendix:
//
//   * Causal GET rule: a read must return a version at least as fresh (in the
//     LWW order) as the freshest version of that key in the client's *actual*
//     causal past. This subsumes read-your-writes and monotonic reads for
//     sticky sessions.
//   * RO-TX snapshot rule: for returned items X (of key x) and Y, Y's causal
//     past must not contain a version of x fresher than X (the property the
//     paper's Proposition 4 derives from the d.DV <= TV visibility rule).
//   * Proposition 2: a version's update timestamp strictly exceeds every
//     entry of its dependency vector.
//   * Algorithm 1 conformance: the DV/RDV a client puts on the wire must
//     match an independent mirror of the client protocol.
//
// The causal past is tracked *exactly* (version granularity), which avoids the
// false positives a dependency-vector check would produce (dependency vectors
// deliberately over-approximate, §IV) while remaining sound. A past is a set
// of versions, kept as a vector clock over *writers*: a writer is one run of
// a session's PUTs in which each PUT was issued with all earlier PUTs of the
// run already in the session's past, and each version carries the dot
// (writer, seq) of its PUT. Every past then holds a prefix of each writer's
// run, so clock[w] = n names exactly the first n versions of writer w. A
// version records its writer's clock at issue — memory per PUT grows with
// the number of writers, not with the number of keys in the writer's past —
// and a key's versions are kept in LWW order, so "is a version of k fresher
// than the one returned in this past" scans only the fresher versions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::checker {

/// Identity of a version in the LWW total order (§IV-B: higher ut wins, ties
/// to the lower source replica).
struct VersionId {
  Timestamp ut = 0;
  DcId sr = 0;

  [[nodiscard]] bool fresher_than(const VersionId& o) const {
    if (ut != o.ut) return ut > o.ut;
    return sr < o.sr;
  }
  friend bool operator==(const VersionId&, const VersionId&) = default;
};

class HistoryChecker {
 public:
  explicit HistoryChecker(std::uint32_t num_dcs) : num_dcs_(num_dcs) {}

  /// Register a client session (before its first operation). `snapshot_rdv`
  /// must match the client engine's mode (Cure* sessions absorb read commit
  /// times into the RDV; POCC sessions do not).
  void register_client(ClientId c, DcId dc, bool snapshot_rdv = false);

  /// Observe a version at creation time (wired to the server PUT path, so the
  /// registry is complete the moment a version becomes readable anywhere).
  /// `op_id` is the creating PutReq's RPC sequence number; it selects the
  /// writer's causal-past snapshot taken when that exact request was issued
  /// (under fault injection a PUT can execute long after its client timed
  /// out and moved on — attributing the *current* session past to it would
  /// claim causal edges the writer never had).
  void on_version_created(ClientId c, std::uint64_t op_id, KeyId key,
                          Timestamp ut, DcId sr, const VersionVector& dv);

  // --- client-visible operations (call *_issued before sending and *_reply
  // before absorbing the reply into the client engine) ---
  void on_get_issued(ClientId c, const proto::GetReq& req);
  void on_get_reply(ClientId c, const proto::GetReply& reply);
  void on_put_issued(ClientId c, const proto::PutReq& req);
  void on_put_reply(ClientId c, const proto::PutReply& reply);
  void on_tx_issued(ClientId c, const proto::RoTxReq& req);
  void on_tx_reply(ClientId c, const proto::RoTxReply& reply);

  /// HA-POCC: the session was re-initialized; all session state restarts and
  /// the session continues in pessimistic mode.
  void on_session_reset(ClientId c);

  /// HA-POCC: the session was promoted back to the optimistic protocol.
  void on_session_promoted(ClientId c);

  [[nodiscard]] std::uint32_t num_dcs() const { return num_dcs_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }
  [[nodiscard]] std::uint64_t versions_registered() const {
    return versions_registered_;
  }

 private:
  using WriterId = std::uint32_t;
  static constexpr WriterId kNoWriter = ~WriterId{0};
  /// A causal past: clock[w] = n holds the first n versions of writer w.
  using Clock = std::vector<std::uint32_t>;
  using ClockPtr = std::shared_ptr<const Clock>;

  struct VersionRecord {
    VersionId id;
    WriterId writer = kNoWriter;  // the version's dot: (writer, seq)
    std::uint32_t seq = 0;
    /// One-version writer under which the version joins a past that lacks
    /// one of its run's earlier versions (see add_version); set on demand.
    WriterId alias = kNoWriter;
    /// False for a version some past holds but no PUT registered.
    bool registered = true;
    ClockPtr past;  // writer's causal past at issue; null when none was taken
  };
  struct PendingPut {
    WriterId writer = kNoWriter;
    std::uint32_t seq = 0;
    ClockPtr past;
  };
  struct Session {
    DcId dc = 0;
    bool snapshot_rdv = false;   // Cure*-style read vector
    bool pessimistic = false;    // HA fallback mode
    VersionVector dv;            // mirror of Alg. 1 DV_c
    VersionVector rdv;           // mirror of Alg. 1 RDV_c
    VersionVector rdv_at_issue;  // snapshot when the in-flight read left
    Clock past;                  // exact causal past
    WriterId writer = kNoWriter;  // the session's current run of PUTs
    std::uint32_t seq = 0;        // dots issued in that run
    /// Dots and past snapshots of in-flight PUTs, keyed by the request's
    /// op_id (a request abandoned by its client can still execute much later).
    std::unordered_map<std::uint64_t, PendingPut> pending_puts;
  };

  void fail(std::string msg) { violations_.push_back(std::move(msg)); }
  /// First record of `id` in `records`, which are kept staler-first (equal
  /// ids in registration order), or where one would be inserted.
  static std::vector<VersionRecord>::iterator first_record(
      std::vector<VersionRecord>& records, VersionId id);
  [[nodiscard]] VersionRecord* find_version(KeyId key, VersionId id);
  /// The version's record, registered or not; creates an unregistered one
  /// (with a one-version writer) when the registry has none.
  VersionRecord& record_for(KeyId key, VersionId id);
  [[nodiscard]] static bool holds(const Clock& past, const VersionRecord& r);
  /// The freshest version of `key` in `past` if it is fresher than `than`.
  [[nodiscard]] std::optional<VersionId> fresher_in_past(const Clock& past,
                                                         KeyId key,
                                                         VersionId than) const;
  /// Adds the single version `r` (not its past) to `past`.
  void add_version(Clock& past, VersionRecord& r);
  void absorb_read(Session& s, const proto::ReadItem& item);
  void check_read_item(ClientId c, Session& s, const proto::ReadItem& item,
                       const char* op);

  std::uint32_t num_dcs_;
  std::unordered_map<ClientId, Session> sessions_;
  std::unordered_map<KeyId, std::vector<VersionRecord>> registry_;
  std::vector<std::string> violations_;
  std::uint64_t checks_ = 0;
  std::uint64_t versions_registered_ = 0;
  WriterId writers_ = 0;
};

}  // namespace pocc::checker
