// Wire messages exchanged between clients, servers and replicas.
//
// Client <-> server messages follow Algorithms 1 and 2 of the paper; server <->
// server messages cover update replication, heartbeats, RO-TX slices, the
// garbage-collection exchange and the (Cure* / HA-POCC) stabilization
// protocol. All channels are point-to-point, lossless and FIFO (§II-C).
//
// Keys travel as interned KeyIds (store/key_space.hpp) — a single-process
// optimization. On the wire (proto/codec.hpp) every key is carried as its
// original string and re-interned by the receiving process, and wire_size()
// charges the original key bytes via the interner, so the §V byte-accounting
// model is unchanged by interning.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::proto {

/// Client-observable metadata for one read item (GET reply or RO-TX item).
struct ReadItem {
  KeyId key = 0;
  bool found = false;
  std::string value;
  DcId sr = 0;          // source replica of the returned version
  Timestamp ut = 0;     // update time of the returned version
  VersionVector dv;     // dependency vector of the returned version
  // --- measurement-only fields (never used by the protocol) ---
  std::uint32_t fresher_versions = 0;   // versions fresher than the returned
  std::uint32_t unmerged_versions = 0;  // versions not yet stable in this DC
};

// ---------- client -> server ----------

// `op_id` on requests/replies is the client's per-session operation sequence
// number, echoed verbatim by the server — RPC framing that lets a client
// discard answers to operations it has abandoned (fault injection: a request
// can outlive its client-side timeout inside a crashed server's backlog and
// be answered much later). It rides the wire (the codec encodes it) but is
// not charged by wire_size(): it is transport framing, not protocol metadata
// (§V fairness accounting) — see the charging rule at wire_size() below.

/// <GETReq k, RDV_c> (Alg. 1 line 2). `pessimistic` marks requests from
/// sessions that fell back to the pessimistic protocol (HA-POCC, §IV-C).
struct GetReq {
  ClientId client = 0;
  KeyId key = 0;
  VersionVector rdv;
  bool pessimistic = false;
  std::uint64_t op_id = 0;
};

/// <PUTReq k, v, DV_c> (Alg. 1 line 10).
struct PutReq {
  ClientId client = 0;
  KeyId key = 0;
  std::string value;
  VersionVector dv;
  bool pessimistic = false;
  std::uint64_t op_id = 0;
};

/// <RO-TX-Req chi, RDV_c> (Alg. 1 line 15).
struct RoTxReq {
  ClientId client = 0;
  std::vector<KeyId> keys;
  VersionVector rdv;
  bool pessimistic = false;
  std::uint64_t op_id = 0;
};

// ---------- server -> client ----------

/// <GETReply v, ut, DV, sr> (Alg. 2 line 4) + measurement metadata.
struct GetReply {
  ClientId client = 0;
  ReadItem item;
  Duration blocked_us = 0;  // time the request spent parked (0 = no stall)
  std::uint64_t op_id = 0;  // echo of GetReq::op_id
};

/// <PUTReply ut> (Alg. 2 line 15).
struct PutReply {
  ClientId client = 0;
  KeyId key = 0;
  Timestamp ut = 0;
  DcId sr = 0;
  Duration blocked_us = 0;
  std::uint64_t op_id = 0;  // echo of PutReq::op_id
};

/// <RO-TX-Resp D> (Alg. 2 line 38).
struct RoTxReply {
  ClientId client = 0;
  std::vector<ReadItem> items;
  VersionVector tv;         // transaction snapshot vector (for the checker)
  Duration blocked_us = 0;  // max slice stall observed by the coordinator
  std::uint64_t op_id = 0;  // echo of RoTxReq::op_id
};

/// HA-POCC (§III-B): the server detected a (suspected) network partition while
/// this client's request was parked; the session must be re-initialized in
/// pessimistic mode.
struct SessionClosed {
  ClientId client = 0;
  std::string reason;
};

// ---------- server -> server ----------

/// <REPLICATE d> (Alg. 2 line 13): asynchronous update propagation, sent in
/// update-timestamp order to the replicas of the partition.
struct Replicate {
  store::Version version;
};

/// <HEARTBEAT ct> (Alg. 2 line 24): broadcast when a partition served no PUT
/// for Δ, so that remote version vectors keep advancing.
struct Heartbeat {
  DcId src_dc = 0;
  Timestamp ts = 0;
};

/// <SliceREQ chi_i, TV> (Alg. 2 line 34): transactional read of the keys this
/// partition owns, against snapshot TV.
struct SliceReq {
  std::uint64_t tx_id = 0;
  NodeId coordinator;
  std::vector<KeyId> keys;
  VersionVector tv;
  bool pessimistic = false;  // Cure* / HA fallback visibility rule
};

/// <SliceRESP D> (Alg. 2 line 47). `aborted` is set by HA-POCC when the slice
/// timed out waiting for a partitioned dependency; the coordinator then
/// closes the client's session instead of completing the transaction.
struct SliceReply {
  std::uint64_t tx_id = 0;
  std::vector<ReadItem> items;
  Duration blocked_us = 0;
  bool aborted = false;
};

/// Garbage-collection exchange (§IV-B): each node reports the entry-wise
/// minimum of its active transactions' snapshot vectors (or its VV when idle)
/// to the DC-local aggregator, which broadcasts the aggregate minimum GV.
struct GcReport {
  NodeId from;
  VersionVector low_watermark;
};
struct GcVector {
  VersionVector gv;
};

/// Stabilization protocol (Cure §IV-C; HA-POCC runs it infrequently): nodes
/// report their VV to the DC-local aggregator; the aggregate minimum is the
/// Global Stable Snapshot broadcast back to all nodes.
struct StabReport {
  NodeId from;
  VersionVector vv;
};
struct GssBroadcast {
  VersionVector gss;
};

/// Crash-recovery handshake (durable deployments, wire v3). A restarted
/// process replays its per-partition WAL, then asks every sibling replica for
/// the replication suffix it missed while down or lost past its last group
/// commit: <RecoveryREQ durable_vv> names the cut. The peer answers with a
/// stream of RecoveryVERSION records — every version in its store fresher
/// than the cut, regardless of source replica (this also reflects back the
/// recovering DC's own versions that were replicated out but arrived at the
/// peer ahead of a local fsync) — closed by <RecoveryDONE vv>. Because the
/// answers ride the same FIFO link as live Replicates, the recovering node's
/// VV may only be merged at DONE time, and the host keeps clients gated until
/// every sibling's DONE arrived (net/tcp_node_host.cpp).
struct RecoveryReq {
  NodeId from;
  VersionVector durable_vv;
};

/// One recovered version. Handled tolerantly: inserted idempotently (the
/// version chain dedupes on (ut, sr)), never subject to the Replicate
/// channel's timestamp-order assertion, and never raising the VV by itself.
struct RecoveryVersion {
  store::Version version;
};

struct RecoveryDone {
  NodeId from;
  VersionVector vv;
};

/// Overload shedding (wire v4): the server's admission control refused the
/// request instead of letting its inbox grow without bound. The refused
/// frame is *not* executed — the client should back off for at least
/// `retry_after_us` and retry the same op_id. The refusal can also meet a
/// copy of an op that was admitted earlier (a duplicated or resent frame):
/// that original still runs, and the partition that admitted it answers
/// the retry of its op_id from the reply it keeps (rt::NodeGroup), so the
/// op stays exactly-once.
struct Overloaded {
  ClientId client = 0;
  Duration retry_after_us = 0;
  std::uint64_t op_id = 0;  // echo of the refused request's op_id
};

/// Test-only payload: counts copies and moves so tests can enforce the
/// zero-copy routing invariant (a Message is moved, never copied, from sender
/// to endpoint). Never sent by a protocol engine.
struct RouteProbe {
  struct Counters {
    std::uint64_t copies = 0;
    std::uint64_t moves = 0;
  };
  std::shared_ptr<Counters> counters;

  RouteProbe() = default;
  explicit RouteProbe(std::shared_ptr<Counters> c) : counters(std::move(c)) {}
  RouteProbe(const RouteProbe& o) : counters(o.counters) {
    if (counters) ++counters->copies;
  }
  RouteProbe& operator=(const RouteProbe& o) {
    counters = o.counters;
    if (counters) ++counters->copies;
    return *this;
  }
  RouteProbe(RouteProbe&& o) noexcept : counters(std::move(o.counters)) {
    if (counters) ++counters->moves;
  }
  RouteProbe& operator=(RouteProbe&& o) noexcept {
    counters = std::move(o.counters);
    if (counters) ++counters->moves;
    return *this;
  }
};

// RouteProbe sits last so the protocol alternatives keep their stable indices
// (SimNetwork::account and SimNode's priority classing switch on index()).
// New protocol messages are appended before it, never between existing ones.
using Message =
    std::variant<GetReq, PutReq, RoTxReq, GetReply, PutReply, RoTxReply,
                 SessionClosed, Replicate, Heartbeat, SliceReq, SliceReply,
                 GcReport, GcVector, StabReport, GssBroadcast, RecoveryReq,
                 RecoveryVersion, RecoveryDone, Overloaded, RouteProbe>;

/// Human-readable message-type name (logging / tests). Defined in
/// proto/codec.cpp, next to each message's field list.
const char* message_name(const Message& m);

/// Exact serialized size in bytes of the message's *protocol* content (used
/// for network byte accounting — POCC and Cure* exchange the *same* metadata,
/// §V: "We can compare POCC and Cure* in a fair manner because the amount of
/// meta-data ... is the same"). Interned keys are charged at their original
/// byte length.
///
/// Charging rule: wire_size(m) == encoded frame body size (proto/codec.hpp)
/// minus the transport-framing fields the codec additionally carries — op_id
/// on requests/replies, the measurement-only blocked_us / fresher_versions /
/// unmerged_versions fields, and the 4-byte frame length prefix. Each field
/// of a message is listed once, with its charge, and the codec's writer,
/// reader and wire_size() all run that list (proto/wire.hpp), so the §V
/// accounting cannot drift from the real wire format. tests/codec_test.cpp
/// cross-checks it against an independent model of the framing fields.
/// (RouteProbe is test-only, never encoded; its nominal 8 bytes are kept for
/// the zero-copy routing tests.) Defined in proto/codec.cpp.
std::size_t wire_size(const Message& m);

}  // namespace pocc::proto
