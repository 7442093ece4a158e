// Golden WAL bytes: one framed kVersion record, one kVv record and one small
// snapshot image, pinned as hex. The pinned bytes must also decode back to the
// data that produced them, so a data directory written by an older build of
// this format still replays.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "store/version.hpp"
#include "wal/wal_format.hpp"

namespace pocc::wal {
namespace {

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

store::Version version(Timestamp ut, DcId sr, const char* value) {
  store::Version v;
  v.key = store::intern_key("1:golden");
  v.value = value;
  v.sr = sr;
  v.ut = ut;
  v.dv = VersionVector{3, 4, 5};
  v.opt_origin = sr == 1;
  return v;
}

void expect_same_version(const store::Version& got,
                         const store::Version& want) {
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.sr, want.sr);
  EXPECT_EQ(got.ut, want.ut);
  EXPECT_EQ(got.dv, want.dv);
  EXPECT_EQ(got.opt_origin, want.opt_origin);
}

std::vector<Record> scan(const std::vector<std::uint8_t>& bytes) {
  std::vector<Record> records;
  const ScanResult res = scan_records(
      bytes.data(), bytes.size(),
      [&](const Record& r) { records.push_back(r); });
  EXPECT_FALSE(res.torn);
  EXPECT_EQ(res.valid_bytes, bytes.size());
  return records;
}

TEST(WalGolden, VersionRecord) {
  const store::Version v = version(0x0a0b, 1, "val");
  std::vector<std::uint8_t> bytes;
  append_version_record(bytes, v);
  const std::string golden =
      "38000000340a3ba3010800313a676f6c64656e0300000076616c010000000b0a"
      "0000000000000303000000000000000400000000000000050000000000000001";
  EXPECT_EQ(hex(bytes), golden);

  const std::vector<Record> records = scan(unhex(golden));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, RecordKind::kVersion);
  expect_same_version(records[0].version, v);
}

TEST(WalGolden, VvRecord) {
  const VersionVector vv{7, 8, 9};
  std::vector<std::uint8_t> bytes;
  append_vv_record(bytes, vv);
  const std::string golden =
      "1a0000001df00fd2020307000000000000000800000000000000090000000000"
      "0000";
  EXPECT_EQ(hex(bytes), golden);

  const std::vector<Record> records = scan(unhex(golden));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, RecordKind::kVv);
  EXPECT_EQ(records[0].vv, vv);
}

TEST(WalGolden, EmptyVvIsRejected) {
  // Engines never log an empty vector; a record claiming one is corruption.
  // The pinned bytes frame a kVv payload with entry count 0 and a valid CRC.
  const std::vector<std::uint8_t> bytes = unhex("020000007d70ef730200");
  std::size_t seen = 0;
  const ScanResult res = scan_records(bytes.data(), bytes.size(),
                                      [&](const Record&) { ++seen; });
  EXPECT_EQ(seen, 0u);
  EXPECT_TRUE(res.torn);
  EXPECT_EQ(res.valid_bytes, 0u);
}

TEST(WalGolden, SnapshotImage) {
  // One key, two versions: the chain order is fixed by the versions' own
  // timestamps, so the image does not depend on interning order.
  store::PartitionStore store;
  const store::Version older = version(0x10, 1, "a");
  const store::Version newer = version(0x20, 2, "bb");
  store.insert(older);
  store.insert(newer);
  const VersionVector vv{0x20, 0x10, 0};
  const std::vector<std::uint8_t> bytes = encode_snapshot(store, vv);
  const std::string golden =
      "504f4343534e50318c000000310f816903200000000000000010000000000000"
      "00000000000000000002000000000000000800313a676f6c64656e0200000062"
      "6202000000200000000000000003030000000000000004000000000000000500"
      "000000000000000800313a676f6c64656e010000006101000000100000000000"
      "00000303000000000000000400000000000000050000000000000001";
  EXPECT_EQ(hex(bytes), golden);

  const std::vector<std::uint8_t> pinned = unhex(golden);
  const auto snap = decode_snapshot(pinned.data(), pinned.size());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->vv, vv);
  ASSERT_EQ(snap->versions.size(), 2u);
  for (const store::Version& v : snap->versions) {
    expect_same_version(v, v.ut == older.ut ? older : newer);
  }
}

}  // namespace
}  // namespace pocc::wal
