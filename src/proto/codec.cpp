#include "proto/codec.hpp"

#include <array>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "proto/wire.hpp"

namespace pocc::proto {

namespace {

using wire::key;
using wire::kFraming;
using wire::kMeta;
using wire::list;
using wire::Of;
using wire::Seq;
using wire::text;

// A message's wire id is its Message variant index (SimNetwork's accounting
// and SimNode's priority classing switch on index() too), so the entries
// below need no id table. RouteProbe sits last and is never encoded.
static_assert(kMaxProtocolWireType + 2 == std::variant_size_v<Message>,
              "every Message alternative but RouteProbe needs a wire id");

// Each key costs >= 2 bytes on the wire, each read item >= ~20.
constexpr Seq kKeys{2, "key"};
constexpr Seq kTxKeys{2, "key", kMaxTxKeys};
constexpr Seq kItems{20, "item"};

/// The version byte and type byte opening every body (charged: the §V model
/// counts them once per message).
template <typename Io>
void header(Io& io, std::uint8_t type) {
  io.num(kWireVersion, kMeta);
  io.num(type, kMeta);
}

template <typename Io, typename L>
void keys(Io& io, L& ks, const Seq& seq = kKeys) {
  list<std::uint32_t>(io, ks, seq, [&](auto& k) { key(io, k); });
}

template <typename Io, Of<ReadItem> R>
void fields(Io& io, R& it) {
  key(io, it.key);
  io.num(it.found, kMeta);
  text(io, it.value);
  io.num(it.sr, kMeta);
  io.num(it.ut, kMeta);
  fields(io, it.dv);
  // Measurement-only fields ride along uncharged so decode round-trips
  // exactly (the checker and tests compare full structs).
  io.num(it.fresher_versions, kFraming);
  io.num(it.unmerged_versions, kFraming);
}

template <typename Io, typename L>
void items(Io& io, L& its) {
  list<std::uint32_t>(io, its, kItems, [&](auto& it) { fields(io, it); });
}

// ------------------------------------------------- the protocol messages ----
//
// One entry per message, in wire-id order: its name and its field list.
// Charging rule (messages.hpp): op_id, blocked_us and the ReadItem
// measurement fields are kFraming, everything else is kMeta.

template <typename M>
constexpr const char* kName = nullptr;

template <>
constexpr const char* kName<GetReq> = "GetReq";
template <typename Io, Of<GetReq> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  key(io, m.key);
  fields(io, m.rdv);
  io.num(m.pessimistic, kMeta);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<PutReq> = "PutReq";
template <typename Io, Of<PutReq> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  key(io, m.key);
  text(io, m.value, kMaxValueBytes);
  fields(io, m.dv);
  io.num(m.pessimistic, kMeta);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<RoTxReq> = "RoTxReq";
template <typename Io, Of<RoTxReq> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  keys(io, m.keys, kTxKeys);
  fields(io, m.rdv);
  io.num(m.pessimistic, kMeta);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<GetReply> = "GetReply";
template <typename Io, Of<GetReply> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  fields(io, m.item);
  io.num(m.blocked_us, kFraming);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<PutReply> = "PutReply";
template <typename Io, Of<PutReply> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  key(io, m.key);
  io.num(m.ut, kMeta);
  io.num(m.sr, kMeta);
  io.num(m.blocked_us, kFraming);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<RoTxReply> = "RoTxReply";
template <typename Io, Of<RoTxReply> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  items(io, m.items);
  fields(io, m.tv);
  io.num(m.blocked_us, kFraming);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<SessionClosed> = "SessionClosed";
template <typename Io, Of<SessionClosed> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  text(io, m.reason);
}

template <>
constexpr const char* kName<Replicate> = "Replicate";
template <typename Io, Of<Replicate> M>
void fields(Io& io, M& m) {
  fields(io, m.version);
}

template <>
constexpr const char* kName<Heartbeat> = "Heartbeat";
template <typename Io, Of<Heartbeat> M>
void fields(Io& io, M& m) {
  io.num(m.src_dc, kMeta);
  io.num(m.ts, kMeta);
}

template <>
constexpr const char* kName<SliceReq> = "SliceReq";
template <typename Io, Of<SliceReq> M>
void fields(Io& io, M& m) {
  io.num(m.tx_id, kMeta);
  fields(io, m.coordinator);
  keys(io, m.keys);
  fields(io, m.tv);
  io.num(m.pessimistic, kMeta);
}

template <>
constexpr const char* kName<SliceReply> = "SliceReply";
template <typename Io, Of<SliceReply> M>
void fields(Io& io, M& m) {
  io.num(m.tx_id, kMeta);
  items(io, m.items);
  io.num(m.aborted, kMeta);
  io.num(m.blocked_us, kFraming);
}

template <>
constexpr const char* kName<GcReport> = "GcReport";
template <typename Io, Of<GcReport> M>
void fields(Io& io, M& m) {
  fields(io, m.from);
  fields(io, m.low_watermark);
}

template <>
constexpr const char* kName<GcVector> = "GcVector";
template <typename Io, Of<GcVector> M>
void fields(Io& io, M& m) {
  fields(io, m.gv);
}

template <>
constexpr const char* kName<StabReport> = "StabReport";
template <typename Io, Of<StabReport> M>
void fields(Io& io, M& m) {
  fields(io, m.from);
  fields(io, m.vv);
}

template <>
constexpr const char* kName<GssBroadcast> = "GssBroadcast";
template <typename Io, Of<GssBroadcast> M>
void fields(Io& io, M& m) {
  fields(io, m.gss);
}

template <>
constexpr const char* kName<RecoveryReq> = "RecoveryReq";
template <typename Io, Of<RecoveryReq> M>
void fields(Io& io, M& m) {
  fields(io, m.from);
  fields(io, m.durable_vv);
}

template <>
constexpr const char* kName<RecoveryVersion> = "RecoveryVersion";
template <typename Io, Of<RecoveryVersion> M>
void fields(Io& io, M& m) {
  fields(io, m.version);
}

template <>
constexpr const char* kName<RecoveryDone> = "RecoveryDone";
template <typename Io, Of<RecoveryDone> M>
void fields(Io& io, M& m) {
  fields(io, m.from);
  fields(io, m.vv);
}

template <>
constexpr const char* kName<Overloaded> = "Overloaded";
template <typename Io, Of<Overloaded> M>
void fields(Io& io, M& m) {
  io.num(m.client, kMeta);
  io.num(m.retry_after_us, kMeta);
  io.num(m.op_id, kFraming);
}

template <>
constexpr const char* kName<RouteProbe> = "RouteProbe";

// ------------------------------------------------------ control frames ----

template <typename Io, Of<NodeHello> H>
void fields(Io& io, H& h) {
  fields(io, h.node);
}

template <typename Io, Of<ClientHello> H>
void fields(Io& io, H& h) {
  io.num(h.client, kMeta);
  io.num(h.preferred_part, kMeta);
}

/// Routing envelope of one Batch item: from, to, then the sub-body length.
/// All of it is batching overhead, never §V protocol bytes.
template <typename Io, typename N, typename Len>
void envelope(Io& io, N& from, N& to, Len& len) {
  io.num(from.dc, kFraming);
  io.num(from.part, kFraming);
  io.num(to.dc, kFraming);
  io.num(to.part, kFraming);
  io.num(len, kFraming);
}

// ------------------------------------------------------------ dispatch ----

/// Header + fields of `m`: one message body, written or sized.
template <typename Io>
void body(Io& io, const Message& m) {
  std::visit(
      [&](const auto& msg) {
        if constexpr (std::is_same_v<std::decay_t<decltype(msg)>,
                                     RouteProbe>) {
          POCC_ASSERT_MSG(false, "RouteProbe is test-only and never encoded");
        } else {
          header(io, static_cast<std::uint8_t>(m.index()));
          fields(io, msg);
        }
      },
      m);
}

template <std::size_t I>
Message decode_as(wire::Reader& r) {
  std::variant_alternative_t<I, Message> m;
  fields(r, m);
  return Message{std::in_place_index<I>, std::move(m)};
}

template <std::size_t... I>
constexpr auto make_decoders(std::index_sequence<I...>) {
  return std::array<Message (*)(wire::Reader&), sizeof...(I)>{
      &decode_as<I>...};
}

/// Decoder of each protocol message, indexed by wire id.
constexpr auto kDecoders =
    make_decoders(std::make_index_sequence<kMaxProtocolWireType + 1>{});

void patch_u32(std::vector<std::uint8_t>& buf, std::size_t at,
               std::size_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Reserve the length prefix, encode via `fn`, then patch the prefix.
template <typename Fn>
std::size_t encode_with_prefix(std::vector<std::uint8_t>& out, Fn&& fn) {
  static_assert(kFrameHeaderBytes == 4);
  const std::size_t prefix_at = out.size();
  out.insert(out.end(), kFrameHeaderBytes, 0);
  wire::Writer w(out);
  fn(w);
  const std::size_t body = out.size() - prefix_at - kFrameHeaderBytes;
  POCC_ASSERT_MSG(body <= kMaxFrameBytes, "frame exceeds kMaxFrameBytes");
  patch_u32(out, prefix_at, body);
  return body;
}

/// One routed sub-message of a Batch body: envelope, then a full
/// (version + type + payload) message body. Only protocol messages are legal
/// — control frames and nested batches are corruption.
bool decode_batch_item(wire::Reader& r, RoutedMessage* out) {
  std::uint32_t len = 0;
  envelope(r, out->from, out->to, len);
  if (!r.ok()) return false;
  if (len < 2 || len > r.remaining()) {
    r.fail("truncated batch item");
    return false;
  }
  wire::Reader sub(r.cursor(), len);
  std::uint8_t version = 0;
  sub.num(version, kMeta);
  if (version != kWireVersion) {
    r.fail("unsupported wire version inside batch");
    return false;
  }
  std::uint8_t type = 0;
  sub.num(type, kMeta);
  if (type > kMaxProtocolWireType) {
    r.fail("batch item is not a protocol message");
    return false;
  }
  out->msg = kDecoders[type](sub);
  if (!sub.ok()) {
    r.fail(sub.error());
    return false;
  }
  if (sub.remaining() != 0) {
    r.fail("trailing bytes in batch item");
    return false;
  }
  r.skip(len);
  return true;
}

Frame decode_batch(wire::Reader& r) {
  std::uint32_t n = 0;
  r.num(n, kFraming);
  if (!r.ok()) return Frame{};
  if (n == 0) {
    r.fail("empty batch");
    return Frame{};
  }
  // Each item costs at least its envelope + a 2-byte sub-body.
  if (!r.admit(n, Seq{kBatchItemOverheadBytes + 2, "batch"})) return Frame{};
  BatchFrame batch;
  batch.items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RoutedMessage item;
    if (!decode_batch_item(r, &item)) return Frame{};
    batch.items.push_back(std::move(item));
  }
  return Frame{std::move(batch)};
}

template <typename T>
Frame decode_control(wire::Reader& r) {
  T frame;
  fields(r, frame);
  return Frame{frame};
}

}  // namespace

const char* message_name(const Message& m) {
  return std::visit(
      [](const auto& msg) {
        constexpr const char* name = kName<std::decay_t<decltype(msg)>>;
        static_assert(name != nullptr, "every Message alternative is named");
        return name;
      },
      m);
}

std::size_t wire_size(const Message& m) {
  // Test-only, never encoded; nominal size kept for the routing tests.
  if (std::holds_alternative<RouteProbe>(m)) return 8;
  wire::Sizer s;
  body(s, m);
  return s.charged();
}

std::size_t encode(const Message& m, std::vector<std::uint8_t>& out) {
  return encode_with_prefix(out, [&](wire::Writer& w) { body(w, m); });
}

std::size_t encode(const NodeHello& h, std::vector<std::uint8_t>& out) {
  return encode_with_prefix(out, [&](wire::Writer& w) {
    header(w, static_cast<std::uint8_t>(WireType::kNodeHello));
    fields(w, h);
  });
}

std::size_t encode(const ClientHello& h, std::vector<std::uint8_t>& out) {
  return encode_with_prefix(out, [&](wire::Writer& w) {
    header(w, static_cast<std::uint8_t>(WireType::kClientHello));
    fields(w, h);
  });
}

// ------------------------------------------------------------- batching ----

BatchWriter::BatchWriter() = default;

void BatchWriter::add(NodeId from, NodeId to, const Message& m) {
  wire::Writer w(buf_);
  if (buf_.empty()) {
    // Lazily start the staged body: outer version + type + count placeholder
    // (patched by flush_to). All of it is batching overhead, never §V
    // protocol bytes — the per-message version/type live in the sub-bodies.
    header(w, static_cast<std::uint8_t>(WireType::kBatch));
    w.num(std::uint32_t{0}, kFraming);
    stats_.overhead_bytes += kBatchHeaderOverheadBytes;
  }
  const std::size_t charged_before = w.charged();
  std::uint32_t len = 0;  // sub-body length, patched below
  envelope(w, from, to, len);
  const std::size_t sub_start = buf_.size();
  body(w, m);
  patch_u32(buf_, sub_start - sizeof(len), buf_.size() - sub_start);
  stats_.protocol_bytes += w.charged() - charged_before;
  stats_.overhead_bytes += kBatchItemOverheadBytes;
  ++count_;
}

std::size_t BatchWriter::flush_to(std::vector<std::uint8_t>& out) {
  POCC_ASSERT_MSG(count_ > 0, "flushing an empty batch");
  patch_u32(buf_, 2, count_);
  const std::size_t body = buf_.size();
  POCC_ASSERT_MSG(body <= kMaxFrameBytes, "batch exceeds kMaxFrameBytes");
  out.reserve(out.size() + kFrameHeaderBytes + body);
  out.insert(out.end(), kFrameHeaderBytes, 0);
  patch_u32(out, out.size() - kFrameHeaderBytes, body);
  out.insert(out.end(), buf_.begin(), buf_.end());
  buf_.clear();
  count_ = 0;
  stats_ = BatchEncodeStats{};
  return body;
}

std::size_t encode(const BatchFrame& batch, std::vector<std::uint8_t>& out,
                   BatchEncodeStats* stats) {
  BatchWriter w;
  for (const RoutedMessage& item : batch.items) {
    w.add(item.from, item.to, item.msg);
  }
  if (stats != nullptr) {
    *stats = w.stats();
    stats->overhead_bytes += kFrameHeaderBytes;
  }
  return w.flush_to(out);
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t len) {
  DecodeResult res;
  if (len < kFrameHeaderBytes) return res;  // kNeedMore
  std::uint32_t body = 0;
  wire::Reader(data, kFrameHeaderBytes).num(body, kFraming);
  if (body > kMaxFrameBytes) {
    res.status = DecodeResult::Status::kError;
    res.error = "frame length " + std::to_string(body) + " exceeds limit";
    return res;
  }
  if (len < kFrameHeaderBytes + body) return res;  // kNeedMore
  res.consumed = kFrameHeaderBytes + body;

  res.status = DecodeResult::Status::kError;
  wire::Reader r(data + kFrameHeaderBytes, body);
  if (body < 2) {
    res.error = "frame too short for version + type";
    return res;
  }
  std::uint8_t version = 0;
  r.num(version, kMeta);
  if (version != kWireVersion) {
    res.error = "unsupported wire version " + std::to_string(version);
    return res;
  }
  std::uint8_t type = 0;
  r.num(type, kMeta);
  Frame frame;
  if (type <= kMaxProtocolWireType) {
    frame = kDecoders[type](r);
  } else if (type == static_cast<std::uint8_t>(WireType::kNodeHello)) {
    frame = decode_control<NodeHello>(r);
  } else if (type == static_cast<std::uint8_t>(WireType::kClientHello)) {
    frame = decode_control<ClientHello>(r);
  } else if (type == static_cast<std::uint8_t>(WireType::kBatch)) {
    frame = decode_batch(r);
  } else {
    res.error = "unknown message type " + std::to_string(type);
    return res;
  }
  if (!r.ok()) {
    res.error = r.error();
    return res;
  }
  if (r.remaining() != 0) {
    res.error = std::to_string(r.remaining()) + " trailing bytes in frame";
    return res;
  }
  res.status = DecodeResult::Status::kOk;
  res.frame = std::move(frame);
  return res;
}

}  // namespace pocc::proto
