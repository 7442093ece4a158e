// Wire codec: exhaustive per-variant round trips, charged-bytes == wire_size
// verification against an independent framing model, version/type rejection,
// and key re-interning semantics.
#include "proto/codec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "store/key_space.hpp"

namespace pocc::proto {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

VersionVector vv3() { return VersionVector{101, 202, 303}; }

ReadItem sample_item(const std::string& key, const std::string& value) {
  ReadItem it;
  it.key = K(key);
  it.found = true;
  it.value = value;
  it.sr = 2;
  it.ut = 777'001;
  it.dv = vv3();
  it.fresher_versions = 3;
  it.unmerged_versions = 1;
  return it;
}

/// Encode + decode one message and return the decoded copy.
Message round_trip(const Message& m) {
  std::vector<std::uint8_t> buf;
  const std::size_t body = encode(m, buf);
  EXPECT_EQ(buf.size(), body + kFrameHeaderBytes);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, buf.size());
  EXPECT_TRUE(std::holds_alternative<Message>(res.frame));
  return std::get<Message>(res.frame);
}

bool items_equal(const ReadItem& a, const ReadItem& b) {
  return a.key == b.key && a.found == b.found && a.value == b.value &&
         a.sr == b.sr && a.ut == b.ut && a.dv == b.dv &&
         a.fresher_versions == b.fresher_versions &&
         a.unmerged_versions == b.unmerged_versions;
}

/// Transport-framing bytes the codec carries beyond wire_size(): op_id,
/// blocked_us and the per-item measurement fields (frame length prefix is
/// accounted separately). Independent model for the charged-bytes test.
std::size_t framing_bytes(const Message& m) {
  switch (m.index()) {
    case 0:  // GetReq: op_id
    case 1:  // PutReq: op_id
    case 2:  // RoTxReq: op_id
      return 8;
    case 3:  // GetReply: blocked_us + op_id + item measurement fields
      return 8 + 8 + 8;
    case 4:  // PutReply: blocked_us + op_id
      return 8 + 8;
    case 5:  // RoTxReply: blocked_us + op_id + per-item measurement fields
      return 8 + 8 + 8 * std::get<RoTxReply>(m).items.size();
    case 10:  // SliceReply: blocked_us + per-item measurement fields
      return 8 + 8 * std::get<SliceReply>(m).items.size();
    case 18:  // Overloaded: op_id
      return 8;
    default:
      return 0;
  }
}

/// Encoded body must be exactly wire_size() + documented transport framing.
void expect_honest_accounting(const Message& m) {
  std::vector<std::uint8_t> buf;
  const std::size_t body = encode(m, buf);
  EXPECT_EQ(body, wire_size(m) + framing_bytes(m)) << message_name(m);
}

TEST(Codec, GetReqRoundTrip) {
  GetReq m;
  m.client = 42;
  m.key = K("codec:get");
  m.rdv = vv3();
  m.pessimistic = true;
  m.op_id = 9'001;
  const auto d = std::get<GetReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.rdv, m.rdv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, PutReqRoundTrip) {
  PutReq m;
  m.client = 7;
  m.key = K("codec:put");
  m.value = "value-bytes";
  m.dv = vv3();
  m.op_id = 3;
  const auto d = std::get<PutReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.value, m.value);
  EXPECT_EQ(d.dv, m.dv);
  EXPECT_FALSE(d.pessimistic);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, RoTxReqRoundTrip) {
  RoTxReq m;
  m.client = 11;
  m.keys = {K("codec:a"), K("codec:b"), K("codec:c")};
  m.rdv = vv3();
  m.pessimistic = true;
  m.op_id = 5;
  const auto d = std::get<RoTxReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.rdv, m.rdv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  expect_honest_accounting(Message{m});
}

TEST(Codec, GetReplyRoundTrip) {
  GetReply m;
  m.client = 42;
  m.item = sample_item("codec:item", "payload");
  m.blocked_us = 1'234;
  m.op_id = 77;
  const auto d = std::get<GetReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_TRUE(items_equal(d.item, m.item));
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, PutReplyRoundTrip) {
  PutReply m;
  m.client = 8;
  m.key = K("codec:putreply");
  m.ut = 555'000;
  m.sr = 1;
  m.blocked_us = 9;
  m.op_id = 12;
  const auto d = std::get<PutReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.ut, m.ut);
  EXPECT_EQ(d.sr, m.sr);
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, RoTxReplyRoundTrip) {
  RoTxReply m;
  m.client = 13;
  m.items = {sample_item("codec:x", "1"), sample_item("codec:y", "22")};
  m.tv = vv3();
  m.blocked_us = 3;
  m.op_id = 6;
  const auto d = std::get<RoTxReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  ASSERT_EQ(d.items.size(), m.items.size());
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    EXPECT_TRUE(items_equal(d.items[i], m.items[i]));
  }
  EXPECT_EQ(d.tv, m.tv);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SessionClosedRoundTrip) {
  SessionClosed m;
  m.client = 21;
  m.reason = "partition suspected";
  const auto d = std::get<SessionClosed>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.reason, m.reason);
  expect_honest_accounting(Message{m});
}

TEST(Codec, ReplicateRoundTrip) {
  Replicate m;
  m.version.key = K("codec:repl");
  m.version.value = "replicated";
  m.version.sr = 2;
  m.version.ut = 31'337;
  m.version.dv = vv3();
  m.version.opt_origin = true;
  const auto d = std::get<Replicate>(round_trip(Message{m}));
  EXPECT_EQ(d.version.key, m.version.key);
  EXPECT_EQ(d.version.value, m.version.value);
  EXPECT_EQ(d.version.sr, m.version.sr);
  EXPECT_EQ(d.version.ut, m.version.ut);
  EXPECT_EQ(d.version.dv, m.version.dv);
  EXPECT_EQ(d.version.opt_origin, m.version.opt_origin);
  expect_honest_accounting(Message{m});
}

TEST(Codec, HeartbeatRoundTrip) {
  Heartbeat m;
  m.src_dc = 2;
  m.ts = 123'456'789;
  const auto d = std::get<Heartbeat>(round_trip(Message{m}));
  EXPECT_EQ(d.src_dc, m.src_dc);
  EXPECT_EQ(d.ts, m.ts);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SliceReqRoundTrip) {
  SliceReq m;
  m.tx_id = 99;
  m.coordinator = NodeId{1, 3};
  m.keys = {K("codec:s1"), K("codec:s2")};
  m.tv = vv3();
  m.pessimistic = true;
  const auto d = std::get<SliceReq>(round_trip(Message{m}));
  EXPECT_EQ(d.tx_id, m.tx_id);
  EXPECT_EQ(d.coordinator, m.coordinator);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.tv, m.tv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SliceReplyRoundTrip) {
  SliceReply m;
  m.tx_id = 100;
  m.items = {sample_item("codec:sr", "v")};
  m.blocked_us = 17;
  m.aborted = true;
  const auto d = std::get<SliceReply>(round_trip(Message{m}));
  EXPECT_EQ(d.tx_id, m.tx_id);
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_TRUE(items_equal(d.items[0], m.items[0]));
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.aborted, m.aborted);
  expect_honest_accounting(Message{m});
}

TEST(Codec, GcAndStabilizationRoundTrips) {
  GcReport rep;
  rep.from = NodeId{2, 5};
  rep.low_watermark = vv3();
  const auto drep = std::get<GcReport>(round_trip(Message{rep}));
  EXPECT_EQ(drep.from, rep.from);
  EXPECT_EQ(drep.low_watermark, rep.low_watermark);
  expect_honest_accounting(Message{rep});

  GcVector gv;
  gv.gv = vv3();
  EXPECT_EQ(std::get<GcVector>(round_trip(Message{gv})).gv, gv.gv);
  expect_honest_accounting(Message{gv});

  StabReport sr;
  sr.from = NodeId{0, 1};
  sr.vv = vv3();
  const auto dsr = std::get<StabReport>(round_trip(Message{sr}));
  EXPECT_EQ(dsr.from, sr.from);
  EXPECT_EQ(dsr.vv, sr.vv);
  expect_honest_accounting(Message{sr});

  GssBroadcast gss;
  gss.gss = vv3();
  EXPECT_EQ(std::get<GssBroadcast>(round_trip(Message{gss})).gss, gss.gss);
  expect_honest_accounting(Message{gss});
}

TEST(Codec, OverloadedRoundTrip) {
  Overloaded m;
  m.client = 4'242;
  m.retry_after_us = 25'000;
  m.op_id = 77;
  const auto d = std::get<Overloaded>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.retry_after_us, m.retry_after_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, EmptyAndDefaultMessagesRoundTrip) {
  // Default-constructed messages (empty vectors, empty strings, key id 0 =
  // the pre-interned empty key) must survive the wire too.
  const Message variants[] = {
      Message{GetReq{}},        Message{PutReq{}},     Message{RoTxReq{}},
      Message{GetReply{}},      Message{PutReply{}},   Message{RoTxReply{}},
      Message{SessionClosed{}}, Message{Replicate{}},  Message{Heartbeat{}},
      Message{SliceReq{}},      Message{SliceReply{}}, Message{GcReport{}},
      Message{GcVector{}},      Message{StabReport{}}, Message{GssBroadcast{}},
      Message{RecoveryReq{}},   Message{RecoveryDone{}}, Message{Overloaded{}},
  };
  for (const Message& m : variants) {
    const Message d = round_trip(m);
    EXPECT_EQ(d.index(), m.index()) << message_name(m);
    expect_honest_accounting(m);
  }
}

TEST(Codec, NodeHelloRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode(NodeHello{NodeId{2, 7}}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  const auto& hello = std::get<NodeHello>(res.frame);
  EXPECT_EQ(hello.node, (NodeId{2, 7}));
}

TEST(Codec, ClientHelloRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode(ClientHello{12'345}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(std::get<ClientHello>(res.frame).client, 12'345u);
  // Omitted preferred_part decodes as the explicit "no preference" marker —
  // hosts must not mistake it for partition 0.
  EXPECT_EQ(std::get<ClientHello>(res.frame).preferred_part,
            kNoPreferredPart);

  buf.clear();
  encode(ClientHello{99, 3}, buf);
  const DecodeResult pinned = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(pinned.status, DecodeResult::Status::kOk) << pinned.error;
  EXPECT_EQ(std::get<ClientHello>(pinned.frame).client, 99u);
  EXPECT_EQ(std::get<ClientHello>(pinned.frame).preferred_part, 3u);
}

TEST(Codec, KeysAreReinternedByString) {
  // The receiving side must resolve the *string*, not trust the sender's id:
  // the same id maps to different strings in different processes. Simulate a
  // remote peer by checking the decoded id resolves to the original bytes.
  PutReq m;
  m.key = K("reintern:me");
  m.value = "v";
  std::vector<std::uint8_t> buf;
  encode(Message{m}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk);
  const auto& d = std::get<PutReq>(std::get<Message>(res.frame));
  EXPECT_EQ(store::KeySpace::global().name(d.key), "reintern:me");
}

TEST(Codec, StreamOfFramesDecodesSequentially) {
  // Several frames back to back in one buffer — the transport's read path.
  std::vector<std::uint8_t> buf;
  GetReq get;
  get.key = K("stream:a");
  get.rdv = vv3();
  PutReq put;
  put.key = K("stream:b");
  put.value = "x";
  put.dv = vv3();
  encode(Message{get}, buf);
  encode(Message{put}, buf);
  encode(Message{Heartbeat{1, 99}}, buf);

  std::size_t off = 0;
  std::vector<std::size_t> seen;
  while (off < buf.size()) {
    const DecodeResult res = decode_frame(buf.data() + off, buf.size() - off);
    ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
    seen.push_back(std::get<Message>(res.frame).index());
    off += res.consumed;
  }
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 8}));
}

TEST(Codec, PartialFrameNeedsMore) {
  std::vector<std::uint8_t> buf;
  GetReply m;
  m.item = sample_item("partial", "value");
  encode(Message{m}, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const DecodeResult res = decode_frame(buf.data(), cut);
    EXPECT_EQ(res.status, DecodeResult::Status::kNeedMore)
        << "prefix of " << cut << " bytes must not decode";
  }
}

TEST(Codec, RejectsWrongWireVersion) {
  std::vector<std::uint8_t> buf;
  encode(Message{Heartbeat{0, 1}}, buf);
  buf[kFrameHeaderBytes] = kWireVersion + 1;
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
  EXPECT_NE(res.error.find("version"), std::string::npos);
}

TEST(Codec, RejectsUnknownType) {
  std::vector<std::uint8_t> buf;
  encode(Message{Heartbeat{0, 1}}, buf);
  buf[kFrameHeaderBytes + 1] = 180;  // not a WireType
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
}

TEST(Codec, RejectsOversizedFrameLength) {
  std::vector<std::uint8_t> buf(kFrameHeaderBytes, 0xff);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
}

TEST(Codec, RejectsTrailingGarbageInsideFrame) {
  std::vector<std::uint8_t> buf;
  encode(Message{Heartbeat{0, 1}}, buf);
  // Grow the body by one byte and patch the length prefix to cover it: a
  // well-framed but overlong body must be rejected, not silently accepted.
  buf.push_back(0xab);
  const std::size_t body = buf.size() - kFrameHeaderBytes;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    buf[i] = static_cast<std::uint8_t>(body >> (8 * i));
  }
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
  EXPECT_NE(res.error.find("trailing"), std::string::npos);
}

TEST(Codec, RejectsImplausibleKeyCount) {
  // Hand-build a RoTxReq frame whose key count claims 2^31 entries.
  std::vector<std::uint8_t> body;
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kRoTxReq));
  for (int i = 0; i < 8; ++i) body.push_back(0);  // client
  body.push_back(0x00);                           // key count LE...
  body.push_back(0x00);
  body.push_back(0x00);
  body.push_back(0x80);  // ... = 2^31
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    buf.push_back(static_cast<std::uint8_t>(body.size() >> (8 * i)));
  }
  buf.insert(buf.end(), body.begin(), body.end());
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
}

TEST(Codec, ClientRequestsAreBounded) {
  // A PutReq value over kMaxValueBytes and a RoTxReq over kMaxTxKeys keys are
  // decode errors; at the bound they decode. Versions carry no such bound:
  // replication and recovery must accept whatever was admitted or logged.
  const auto decodes = [](const Message& m) {
    std::vector<std::uint8_t> buf;
    encode(m, buf);
    return decode_frame(buf.data(), buf.size()).status ==
           DecodeResult::Status::kOk;
  };
  PutReq put;
  put.key = K("bound:put");
  put.value.assign(kMaxValueBytes, 'v');
  EXPECT_TRUE(decodes(Message{put}));
  put.value.push_back('v');
  EXPECT_FALSE(decodes(Message{put}));

  RoTxReq tx;
  tx.keys.assign(kMaxTxKeys, K("bound:tx"));
  EXPECT_TRUE(decodes(Message{tx}));
  tx.keys.push_back(K("bound:tx"));
  EXPECT_FALSE(decodes(Message{tx}));

  Replicate repl;
  repl.version.key = K("bound:repl");
  repl.version.value.assign(kMaxValueBytes + 1, 'v');
  repl.version.dv = vv3();
  EXPECT_TRUE(decodes(Message{repl}));
  SliceReq slice;
  slice.keys.assign(kMaxTxKeys + 1, K("bound:slice"));
  EXPECT_TRUE(decodes(Message{slice}));
}

// ------------------------------------------------------------ Batch frames --

bool messages_equivalent(const Message& a, const Message& b) {
  // Structural equality via re-encoding: two messages that serialize to the
  // same bytes are the same message.
  std::vector<std::uint8_t> ba;
  std::vector<std::uint8_t> bb;
  encode(a, ba);
  encode(b, bb);
  return ba == bb;
}

TEST(Codec, BatchRoundTripsRoutedMessages) {
  BatchFrame batch;
  Replicate repl;
  repl.version.key = K("batch:repl");
  repl.version.value = "payload";
  repl.version.sr = 1;
  repl.version.ut = 42;
  repl.version.dv = vv3();
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{2, 1}, Message{repl}});
  batch.items.push_back(
      RoutedMessage{NodeId{0, 0}, NodeId{2, 0}, Message{Heartbeat{0, 99}}});
  StabReport sr;
  sr.from = NodeId{0, 1};
  sr.vv = vv3();
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{0, 0}, Message{sr}});

  std::vector<std::uint8_t> buf;
  BatchEncodeStats stats;
  const std::size_t body = encode(batch, buf, &stats);
  EXPECT_EQ(buf.size(), body + kFrameHeaderBytes);

  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, buf.size());
  const auto& decoded = std::get<BatchFrame>(res.frame);
  ASSERT_EQ(decoded.items.size(), batch.items.size());
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].from, batch.items[i].from) << i;
    EXPECT_EQ(decoded.items[i].to, batch.items[i].to) << i;
    EXPECT_TRUE(
        messages_equivalent(decoded.items[i].msg, batch.items[i].msg))
        << i;
  }
}

TEST(Codec, BatchAccountingSplitsProtocolFromOverhead) {
  // The §V-charged bytes of a batch must equal the sum of the members'
  // wire_size() — batching adds framing, never protocol metadata — and the
  // overhead must be exactly the documented envelope model.
  BatchFrame batch;
  std::size_t protocol = 0;
  for (int i = 0; i < 5; ++i) {
    Replicate repl;
    repl.version.key = K("batch:acct:" + std::to_string(i));
    repl.version.value = "v";
    repl.version.dv = vv3();
    protocol += wire_size(Message{repl});
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, 0}, Message{repl}});
  }
  std::vector<std::uint8_t> buf;
  BatchEncodeStats stats;
  const std::size_t body = encode(batch, buf, &stats);
  EXPECT_EQ(stats.protocol_bytes, protocol);
  EXPECT_EQ(stats.overhead_bytes,
            kBatchHeaderOverheadBytes +
                batch.items.size() * kBatchItemOverheadBytes +
                kFrameHeaderBytes);
  // Replicate carries no uncharged transport fields, so the split is exact.
  EXPECT_EQ(body + kFrameHeaderBytes,
            stats.protocol_bytes + stats.overhead_bytes);
}

TEST(Codec, BatchWriterMatchesOneShotEncode) {
  BatchWriter w;
  EXPECT_TRUE(w.empty());
  BatchFrame batch;
  for (int i = 0; i < 3; ++i) {
    Heartbeat hb{static_cast<DcId>(i), 1'000 + i};
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, 1}, Message{hb}});
    w.add(NodeId{0, 0}, NodeId{1, 1}, Message{hb});
  }
  EXPECT_EQ(w.count(), 3u);
  std::vector<std::uint8_t> incremental;
  w.flush_to(incremental);
  EXPECT_TRUE(w.empty());  // reset for reuse
  std::vector<std::uint8_t> oneshot;
  encode(batch, oneshot);
  EXPECT_EQ(incremental, oneshot);
}

TEST(Codec, BatchRejectsEmptyNestedAndControlItems) {
  // Hand-build malformed batches: count 0, a nested batch, a NodeHello item.
  const auto frame_with_body = [](const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
      buf.push_back(static_cast<std::uint8_t>(body.size() >> (8 * i)));
    }
    buf.insert(buf.end(), body.begin(), body.end());
    return buf;
  };
  const auto header = [] {
    std::vector<std::uint8_t> body;
    body.push_back(kWireVersion);
    body.push_back(static_cast<std::uint8_t>(WireType::kBatch));
    return body;
  };

  {  // count = 0
    auto body = header();
    body.insert(body.end(), 4, 0);
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("empty batch"), std::string::npos);
  }
  {  // one item whose sub-body is a control frame (NodeHello)
    auto body = header();
    body.push_back(1);  // count LE
    body.insert(body.end(), 3, 0);
    body.insert(body.end(), 16, 0);  // from/to envelope
    std::vector<std::uint8_t> sub;
    sub.push_back(kWireVersion);
    sub.push_back(static_cast<std::uint8_t>(WireType::kNodeHello));
    sub.insert(sub.end(), 8, 0);  // NodeId
    body.push_back(static_cast<std::uint8_t>(sub.size()));
    body.insert(body.end(), 3, 0);
    body.insert(body.end(), sub.begin(), sub.end());
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("not a protocol message"), std::string::npos);
  }
  {  // nested batch inside a batch
    auto body = header();
    body.push_back(1);
    body.insert(body.end(), 3, 0);
    body.insert(body.end(), 16, 0);
    std::vector<std::uint8_t> sub = header();  // a batch sub-body
    sub.insert(sub.end(), 4, 0);
    body.push_back(static_cast<std::uint8_t>(sub.size()));
    body.insert(body.end(), 3, 0);
    body.insert(body.end(), sub.begin(), sub.end());
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
  }
  {  // implausible item count
    auto body = header();
    body.push_back(0xff);
    body.push_back(0xff);
    body.push_back(0xff);
    body.push_back(0x7f);
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("implausible batch count"), std::string::npos);
  }
}

TEST(Codec, BatchTruncationNeedsMore) {
  BatchFrame batch;
  for (int i = 0; i < 3; ++i) {
    Replicate repl;
    repl.version.key = K("batch:trunc");
    repl.version.value = "vvvv";
    repl.version.dv = vv3();
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, 0}, Message{repl}});
  }
  std::vector<std::uint8_t> buf;
  encode(batch, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const DecodeResult res = decode_frame(buf.data(), cut);
    EXPECT_EQ(res.status, DecodeResult::Status::kNeedMore)
        << "batch prefix of " << cut << " bytes must not decode";
  }
}

}  // namespace
}  // namespace pocc::proto
