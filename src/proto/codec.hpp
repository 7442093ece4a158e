// Versioned, length-prefixed binary wire codec for proto::Message.
//
// This is the process-boundary twin of the in-memory message structs: the TCP
// deployment (net/tcp_transport.hpp, poccd, pocc_loadgen) exchanges exactly
// these frames. Layout of one frame:
//
//   u32  body length (little-endian, transport framing, never charged)
//   u8   wire version (kWireVersion; receivers reject other versions)
//   u8   message type (stable on-the-wire ids, see WireType)
//   ...  message payload, field by field, little-endian
//
// Keys cross the wire as their original strings: KeyIds are a *per-process*
// interning optimization and are meaningless to a remote peer. encode() reads
// the key bytes out of the sender's KeySpace; decode() re-interns them into
// the receiver's, so engines on both sides keep operating on dense 4-byte
// ids while the wire carries — and wire_size() charges — full key strings
// (docs/DESIGN.md, "Wire format").
//
// Byte-accounting honesty: each message's fields are listed once
// (proto/wire.hpp, proto/codec.cpp), each with its charge, and encode(),
// decode_frame() and wire_size() all run that one list. wire_size(m) is
// therefore the charged part of the bytes encode() writes by construction:
// the §V accounting model cannot drift from the real wire format.
//
// decode_frame() is defensive: truncated, corrupted or absurd input yields a
// DecodeResult error (never a crash or an allocation bomb) — it is fuzzed by
// tests/codec_fuzz_test.cpp. Client requests are also bounded (kMaxValueBytes,
// kMaxTxKeys) so that no request a server accepts can make it build a frame
// over kMaxFrameBytes.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"

namespace pocc::proto {

/// Bumped on any incompatible layout change; receivers reject mismatches.
/// v2: Batch frames (coalesced server-to-server traffic with explicit
/// per-message (from, to) routing envelopes — multi-partition hosting).
/// v3: crash-recovery handshake messages (RecoveryReq / RecoveryVersion /
/// RecoveryDone — durable WAL deployments, src/wal/).
/// v4: Overloaded replies (explicit admission-control refusal instead of
/// silent inbox growth — chaos-hardened deployments, net/tcp_node_host.cpp).
/// v5: ClientHello carries the client's preferred partition so the sharded
/// server can pin the connection to the event loop owning that partition's
/// worker (net/tcp_transport.hpp, "pinning").
inline constexpr std::uint8_t kWireVersion = 5;

/// Size of the frame length prefix preceding every body.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Upper bound on one frame's body; larger lengths are treated as corruption.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Stable on-the-wire message-type ids. Values 0..18 are the Message variant
/// indices (the codec writes index() as the type byte); the 200+ range is
/// transport control traffic that never reaches a protocol engine.
enum class WireType : std::uint8_t {
  kGetReq = 0,
  kPutReq = 1,
  kRoTxReq = 2,
  kGetReply = 3,
  kPutReply = 4,
  kRoTxReply = 5,
  kSessionClosed = 6,
  kReplicate = 7,
  kHeartbeat = 8,
  kSliceReq = 9,
  kSliceReply = 10,
  kGcReport = 11,
  kGcVector = 12,
  kStabReport = 13,
  kGssBroadcast = 14,
  kRecoveryReq = 15,
  kRecoveryVersion = 16,
  kRecoveryDone = 17,
  kOverloaded = 18,
  kNodeHello = 200,
  kClientHello = 201,
  kBatch = 202,
};

/// Highest wire id that is a protocol message (legal inside a Batch frame).
inline constexpr std::uint8_t kMaxProtocolWireType =
    static_cast<std::uint8_t>(WireType::kOverloaded);

/// Largest PutReq value a server decodes; a longer one is a decode error and
/// the connection is closed, as for any corrupt frame.
inline constexpr std::size_t kMaxValueBytes = 128u << 10;

/// Most keys one RoTxReq may name; a wider request is a decode error.
inline constexpr std::size_t kMaxTxKeys = 64;

// The worst RoTxReply a server can build for an admitted request must fit in
// one frame: kMaxTxKeys items, each with a 64 KiB key (u16 length + bytes), a
// kMaxValueBytes value (u32 length + bytes), found + sr + ut, a kMaxDcs-wide
// dependency vector and the two measurement fields; plus the reply's own
// version, type, client, item count, kMaxDcs-wide tv, blocked_us and op_id.
static_assert(kMaxTxKeys * ((2 + 0xffff) + (4 + kMaxValueBytes) + 1 + 4 + 8 +
                            (1 + 8 * kMaxDcs) + 4 + 4) +
                      (1 + 1 + 8 + 4 + (1 + 8 * kMaxDcs) + 8 + 8) <=
                  kMaxFrameBytes,
              "an admitted RO-TX request can overflow its reply frame");

/// First frame on a server-to-server connection: who is dialing in. Lets the
/// receiver attribute subsequent frames on the connection to a NodeId.
struct NodeHello {
  NodeId node;
};

/// preferred_part value meaning "no pinning preference".
inline constexpr PartitionId kNoPreferredPart = 0xffff'ffffu;

/// Optional first frame on a client connection (the server also learns
/// client -> connection bindings lazily from request frames). `client` 0
/// means the frame only pins: the connection pool greets with the partition
/// it dialed the connection for, and the server places the socket on the
/// event loop owning that partition's worker. (v5)
struct ClientHello {
  ClientId client = 0;
  PartitionId preferred_part = kNoPreferredPart;
};

/// One protocol message with its routing envelope, as carried inside a Batch
/// frame. Multi-partition hosts need the explicit (from, to) pair: a link
/// connects two *processes*, each hosting several (dc, partition) nodes, so
/// connection identity alone no longer names the endpoints.
struct RoutedMessage {
  NodeId from;
  NodeId to;
  Message msg;
};

/// Coalesced server-to-server traffic: every message a process accumulated
/// for one peer link since the last flush rides a single wire frame (Okapi /
/// Cure-style interval batching — amortizes the per-frame cost of update
/// propagation and stabilization traffic). Only protocol Messages may ride in
/// a batch; control frames and nested batches are rejected by the decoder.
struct BatchFrame {
  std::vector<RoutedMessage> items;
};

/// Per-envelope batching overhead in body bytes: from(8) + to(8) + the u32
/// sub-body length. The sub-body itself re-carries version + type, which are
/// already charged as protocol bytes by wire_size().
inline constexpr std::size_t kBatchItemOverheadBytes = 8 + 8 + 4;

/// Batch body bytes that are not per-item: outer version + type + u32 count.
inline constexpr std::size_t kBatchHeaderOverheadBytes = 1 + 1 + 4;

/// Everything one frame can carry.
using Frame = std::variant<Message, NodeHello, ClientHello, BatchFrame>;

/// Append one frame (length prefix + body) carrying `m` to `out`. Returns the
/// body size in bytes. RouteProbe (test-only) is not encodable and asserts.
std::size_t encode(const Message& m, std::vector<std::uint8_t>& out);

std::size_t encode(const NodeHello& h, std::vector<std::uint8_t>& out);
std::size_t encode(const ClientHello& h, std::vector<std::uint8_t>& out);

/// Byte split of one encoded batch: `protocol` is what wire_size() charges
/// across the contained messages (§V accounting, identical to sending each
/// message as its own frame); `overhead` is everything batching added — the
/// routing envelopes, sub-lengths, the batch header and the frame length
/// prefix. Tracked separately so the deployment can report how much framing
/// the coalescing policy costs/saves (docs/DESIGN.md deviation 8).
struct BatchEncodeStats {
  std::size_t protocol_bytes = 0;
  std::size_t overhead_bytes = 0;
};

/// Append one Batch frame carrying `batch` to `out`. Returns the body size.
/// Asserts the batch is non-empty and contains no RouteProbe. `stats`, when
/// given, receives the protocol/overhead byte split (including the length
/// prefix in overhead).
std::size_t encode(const BatchFrame& batch, std::vector<std::uint8_t>& out,
                   BatchEncodeStats* stats = nullptr);

/// Incremental Batch encoder for the per-link coalescing path: each add()
/// serializes the message straight into the staged frame (no second copy at
/// flush time), so the flush policy can bound batches by *exact* wire bytes.
/// flush_to() completes the frame and resets the writer for the next batch.
class BatchWriter {
 public:
  BatchWriter();

  /// Encode one routed message into the staged batch.
  void add(NodeId from, NodeId to, const Message& m);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Staged body size so far (what the wire frame's body will be).
  [[nodiscard]] std::size_t body_bytes() const { return buf_.size(); }
  /// Protocol/overhead split of the staged bytes (prefix not yet included).
  [[nodiscard]] const BatchEncodeStats& stats() const { return stats_; }

  /// Append the completed frame (length prefix + staged body) to `out` and
  /// reset to empty. Asserts at least one message was staged.
  std::size_t flush_to(std::vector<std::uint8_t>& out);

 private:
  std::vector<std::uint8_t> buf_;  // staged body: header + items
  std::size_t count_ = 0;
  BatchEncodeStats stats_;
};

struct DecodeResult {
  enum class Status {
    kOk,        // `frame` holds the decoded frame, `consumed` bytes eaten
    kNeedMore,  // the buffer holds only part of a frame; feed more bytes
    kError,     // corrupted input; `error` explains, the connection is dead
  };
  Status status = Status::kNeedMore;
  Frame frame;
  std::size_t consumed = 0;  // bytes consumed from the input (prefix + body)
  std::string error;
};

/// Decode one frame from the front of [data, data+len). Key strings are
/// re-interned into the process-global KeySpace.
DecodeResult decode_frame(const std::uint8_t* data, std::size_t len);

}  // namespace pocc::proto
