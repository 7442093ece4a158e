// Golden wire bytes: the exact encoding of one populated instance of every
// protocol message, both hello frames and a two-item Batch, pinned as hex.
//
// Round-trip tests cannot catch a layout change made symmetrically to the
// encoder and the decoder; these pins can. Each case also decodes the pinned
// bytes and re-encodes the result, so a peer built from this tree still reads
// frames written by an older build of the same wire version.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "proto/codec.hpp"
#include "store/key_space.hpp"

namespace pocc::proto {
namespace {

KeyId K(const char* key) { return store::intern_key(key); }

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string s;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    s += buf;
  }
  return s;
}

std::vector<std::uint8_t> unhex(const std::string& s) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

ReadItem item(const char* key, const char* value) {
  ReadItem it;
  it.key = K(key);
  it.found = true;
  it.value = value;
  it.sr = 1;
  it.ut = 0x0102;
  it.dv = VersionVector{7, 8};
  it.fresher_versions = 2;
  it.unmerged_versions = 3;
  return it;
}

store::Version version(const char* key, const char* value) {
  store::Version v;
  v.key = K(key);
  v.value = value;
  v.sr = 1;
  v.ut = 0x0a0b;
  v.dv = VersionVector{5, 6};
  v.opt_origin = true;
  return v;
}

/// Encodes `frame`, compares with `golden`, then decodes `golden` and checks
/// that re-encoding the decoded frame reproduces it byte for byte.
template <typename F>
void expect_golden(const F& frame, const std::string& golden) {
  std::vector<std::uint8_t> bytes;
  encode(frame, bytes);
  EXPECT_EQ(hex(bytes), golden);

  const std::vector<std::uint8_t> pinned = unhex(golden);
  const DecodeResult res = decode_frame(pinned.data(), pinned.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, pinned.size());
  ASSERT_TRUE(std::holds_alternative<F>(res.frame));
  std::vector<std::uint8_t> again;
  encode(std::get<F>(res.frame), again);
  EXPECT_EQ(again, pinned);
}

struct Case {
  Message msg;
  const char* golden;
};

std::vector<Case> cases() {
  GetReq get;
  get.client = 0x11;
  get.key = K("g:k");
  get.rdv = VersionVector{1, 2};
  get.pessimistic = true;
  get.op_id = 0x21;

  PutReq put;
  put.client = 0x12;
  put.key = K("p:k");
  put.value = "val";
  put.dv = VersionVector{3, 4};
  put.op_id = 0x22;

  RoTxReq tx;
  tx.client = 0x13;
  tx.keys = {K("t:a"), K("t:b")};
  tx.rdv = VersionVector{9};
  tx.op_id = 0x23;

  GetReply get_reply;
  get_reply.client = 0x14;
  get_reply.item = item("g:k", "gv");
  get_reply.blocked_us = 0x31;
  get_reply.op_id = 0x24;

  PutReply put_reply;
  put_reply.client = 0x15;
  put_reply.key = K("p:k");
  put_reply.ut = 0x0304;
  put_reply.sr = 2;
  put_reply.blocked_us = 0x32;
  put_reply.op_id = 0x25;

  RoTxReply tx_reply;
  tx_reply.client = 0x16;
  tx_reply.items = {item("t:a", "a"), item("t:b", "")};
  tx_reply.items[1].found = false;
  tx_reply.tv = VersionVector{10, 11};
  tx_reply.blocked_us = 0x33;
  tx_reply.op_id = 0x26;

  SessionClosed closed;
  closed.client = 0x17;
  closed.reason = "why";

  Replicate repl;
  repl.version = version("r:k", "rv");

  Heartbeat hb;
  hb.src_dc = 2;
  hb.ts = 0x0506;

  SliceReq slice;
  slice.tx_id = 0x41;
  slice.coordinator = NodeId{1, 2};
  slice.keys = {K("t:a")};
  slice.tv = VersionVector{12, 13};
  slice.pessimistic = true;

  SliceReply slice_reply;
  slice_reply.tx_id = 0x42;
  slice_reply.items = {item("t:a", "s")};
  slice_reply.blocked_us = 0x34;
  slice_reply.aborted = true;

  GcReport gc_report;
  gc_report.from = NodeId{0, 1};
  gc_report.low_watermark = VersionVector{14, 15};

  GcVector gc_vector;
  gc_vector.gv = VersionVector{16, 17};

  StabReport stab;
  stab.from = NodeId{2, 0};
  stab.vv = VersionVector{18, 19};

  GssBroadcast gss;
  gss.gss = VersionVector{20, 21};

  RecoveryReq rec_req;
  rec_req.from = NodeId{1, 1};
  rec_req.durable_vv = VersionVector{22, 23};

  RecoveryVersion rec_version;
  rec_version.version = version("v:k", "");
  rec_version.version.opt_origin = false;

  RecoveryDone rec_done;
  rec_done.from = NodeId{2, 1};
  rec_done.vv = VersionVector{24, 25};

  Overloaded overloaded;
  overloaded.client = 0x18;
  overloaded.retry_after_us = 0x0708;
  overloaded.op_id = 0x27;

  return {
      {Message{get},
        "29000000050011000000000000000300673a6b02010000000000000002000000"
        "00000000012100000000000000"},
      {Message{put},
        "30000000050112000000000000000300703a6b0300000076616c020300000000"
        "0000000400000000000000002200000000000000"},
      {Message{tx},
        "2a00000005021300000000000000020000000300743a610300743a6201090000"
        "0000000000002300000000000000"},
      {Message{get_reply},
        "4b000000050314000000000000000300673a6b01020000006776010000000201"
        "0000000000000207000000000000000800000000000000020000000300000031"
        "000000000000002400000000000000"},
      {Message{put_reply},
        "2b000000050415000000000000000300703a6b04030000000000000200000032"
        "000000000000002500000000000000"},
      {Message{tx_reply},
        "8e00000005051600000000000000020000000300743a61010100000061010000"
        "0002010000000000000207000000000000000800000000000000020000000300"
        "00000300743a6200000000000100000002010000000000000207000000000000"
        "0008000000000000000200000003000000020a000000000000000b0000000000"
        "000033000000000000002600000000000000"},
      {Message{closed},
        "110000000506170000000000000003000000776879"},
      {Message{repl},
        "2b00000005070300723a6b020000007276010000000b0a000000000000020500"
        "000000000000060000000000000001"},
      {Message{hb},
        "0e0000000508020000000605000000000000"},
      {Message{slice},
        "2d000000050941000000000000000100000002000000010000000300743a6102"
        "0c000000000000000d0000000000000001"},
      {Message{slice_reply},
        "47000000050a4200000000000000010000000300743a61010100000073010000"
        "0002010000000000000207000000000000000800000000000000020000000300"
        "0000013400000000000000"},
      {Message{gc_report},
        "1b000000050b0000000001000000020e000000000000000f00000000000000"},
      {Message{gc_vector},
        "13000000050c0210000000000000001100000000000000"},
      {Message{stab},
        "1b000000050d02000000000000000212000000000000001300000000000000"},
      {Message{gss},
        "13000000050e0214000000000000001500000000000000"},
      {Message{rec_req},
        "1b000000050f01000000010000000216000000000000001700000000000000"},
      {Message{rec_version},
        "2900000005100300763a6b00000000010000000b0a0000000000000205000000"
        "00000000060000000000000000"},
      {Message{rec_done},
        "1b000000051102000000010000000218000000000000001900000000000000"},
      {Message{overloaded},
        "1a0000000512180000000000000008070000000000002700000000000000"},
  };
}

TEST(WireGolden, EveryProtocolMessage) {
  const std::vector<Case> all = cases();
  // One case per protocol message, in wire-id order (RouteProbe is last in
  // the variant and never encoded).
  ASSERT_EQ(all.size(), std::variant_size_v<Message> - 1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(message_name(all[i].msg));
    ASSERT_EQ(all[i].msg.index(), i);
    expect_golden(all[i].msg, all[i].golden);
  }
}

TEST(WireGolden, NodeHello) {
  expect_golden(NodeHello{NodeId{2, 3}},
                "0a00000005c80200000003000000");
}

TEST(WireGolden, ClientHello) {
  expect_golden(ClientHello{0x19, 1},
                "0e00000005c9190000000000000001000000");
  expect_golden(ClientHello{0x1a},
                "0e00000005c91a00000000000000ffffffff");
}

TEST(WireGolden, TwoItemBatch) {
  BatchFrame batch;
  Replicate repl;
  repl.version = version("b:k", "bv");
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{2, 1}, Message{repl}});
  batch.items.push_back(RoutedMessage{NodeId{0, 0}, NodeId{1, 0},
                                      Message{Heartbeat{0, 0x0809}}});
  const std::string golden =
      "6700000005ca02000000000000000100000002000000010000002b0000000507"
      "0300623a6b020000006276010000000b0a000000000000020500000000000000"
      "060000000000000001000000000000000001000000000000000e000000050800"
      "0000000908000000000000";

  std::vector<std::uint8_t> bytes;
  encode(batch, bytes);
  EXPECT_EQ(hex(bytes), golden);

  const std::vector<std::uint8_t> pinned = unhex(golden);
  const DecodeResult res = decode_frame(pinned.data(), pinned.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  const auto& decoded = std::get<BatchFrame>(res.frame);
  ASSERT_EQ(decoded.items.size(), 2u);
  std::vector<std::uint8_t> again;
  encode(decoded, again);
  EXPECT_EQ(again, pinned);
}

}  // namespace
}  // namespace pocc::proto
