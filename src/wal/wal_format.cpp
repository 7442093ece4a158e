#include "wal/wal_format.hpp"

#include <string_view>

#include "common/crc32.hpp"
#include "proto/wire.hpp"

namespace pocc::wal {

namespace {

using proto::wire::kMeta;

constexpr std::string_view kSnapshotMagic("POCCSNP1", 8);

// Every byte below goes through the proto codec's wire sinks
// (proto/wire.hpp), and versions and vectors use the very field lists the
// Replicate and RecoveryVersion messages use. The WAL needs no byte
// accounting, so every field is simply charged.

/// u32 length + u32 CRC-32 framing `payload`, then the payload itself.
void frame(std::vector<std::uint8_t>& out,
           const std::vector<std::uint8_t>& payload) {
  proto::wire::Writer w(out);
  w.num(static_cast<std::uint32_t>(payload.size()), kMeta);
  w.num(crc32(payload.data(), payload.size()), kMeta);
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Reads the u32 length + u32 CRC framing at `data` (at least 8 bytes).
void read_frame_header(const std::uint8_t* data, std::uint32_t* len,
                       std::uint32_t* crc) {
  proto::wire::Reader r(data, 8);
  r.num(*len, kMeta);
  r.num(*crc, kMeta);
}

/// Decode one payload (kind + fields). False on any malformation; an empty
/// version vector is one too, since engines never log one.
bool decode_payload(const std::uint8_t* data, std::size_t len, Record* out) {
  proto::wire::Reader r(data, len);
  std::uint8_t kind = 0;
  r.num(kind, kMeta);
  if (!r.ok()) return false;
  switch (static_cast<RecordKind>(kind)) {
    case RecordKind::kVersion:
      out->kind = RecordKind::kVersion;
      fields(r, out->version);
      if (out->version.dv.size() == 0) return false;
      break;
    case RecordKind::kVv:
      out->kind = RecordKind::kVv;
      fields(r, out->vv);
      if (out->vv.size() == 0) return false;
      break;
    default:
      return false;
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

void append_version_record(std::vector<std::uint8_t>& out,
                           const store::Version& v) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64 + v.value.size());
  proto::wire::Writer w(payload);
  w.num(static_cast<std::uint8_t>(RecordKind::kVersion), kMeta);
  fields(w, v);
  frame(out, payload);
}

void append_vv_record(std::vector<std::uint8_t>& out,
                      const VersionVector& vv) {
  std::vector<std::uint8_t> payload;
  payload.reserve(2 + static_cast<std::size_t>(vv.size()) * 8);
  proto::wire::Writer w(payload);
  w.num(static_cast<std::uint8_t>(RecordKind::kVv), kMeta);
  fields(w, vv);
  frame(out, payload);
}

ScanResult scan_records(const std::uint8_t* data, std::size_t len,
                        const std::function<void(const Record&)>& fn) {
  ScanResult res;
  std::size_t off = 0;
  while (off + 8 <= len) {
    std::uint32_t payload_len = 0;
    std::uint32_t stored_crc = 0;
    read_frame_header(data + off, &payload_len, &stored_crc);
    if (payload_len == 0 || payload_len > len - off - 8) break;  // torn
    const std::uint8_t* payload = data + off + 8;
    if (crc32(payload, payload_len) != stored_crc) break;  // corrupted
    Record rec;
    if (!decode_payload(payload, payload_len, &rec)) break;
    fn(rec);
    ++res.records;
    off += 8 + payload_len;
    res.valid_bytes = off;
  }
  res.torn = res.valid_bytes != len;
  return res;
}

std::vector<std::uint8_t> encode_snapshot(const store::PartitionStore& store,
                                          const VersionVector& vv) {
  std::vector<std::uint8_t> body;
  proto::wire::Writer w(body);
  fields(w, vv);
  std::uint64_t count = 0;
  for (const auto& [key, chain] : store.chains()) {
    (void)key;
    count += chain.versions().size();
  }
  w.num(count, kMeta);
  for (const auto& [key, chain] : store.chains()) {
    (void)key;
    for (const store::Version& v : chain.versions()) fields(w, v);
  }

  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotMagic.size() + 8 + body.size());
  proto::wire::Writer(out).chars(kSnapshotMagic, kSnapshotMagic.size(),
                                 "snapshot magic");
  frame(out, body);
  return out;
}

std::optional<SnapshotData> decode_snapshot(const std::uint8_t* data,
                                            std::size_t len) {
  if (len < kSnapshotMagic.size() + 8) return std::nullopt;
  if (std::string_view(reinterpret_cast<const char*>(data),
                       kSnapshotMagic.size()) != kSnapshotMagic) {
    return std::nullopt;
  }
  std::uint32_t body_len = 0;
  std::uint32_t stored_crc = 0;
  read_frame_header(data + kSnapshotMagic.size(), &body_len, &stored_crc);
  const std::uint8_t* body = data + kSnapshotMagic.size() + 8;
  if (body_len != len - kSnapshotMagic.size() - 8) return std::nullopt;
  if (crc32(body, body_len) != stored_crc) return std::nullopt;

  proto::wire::Reader r(body, body_len);
  SnapshotData snap;
  fields(r, snap.vv);
  if (!r.ok() || snap.vv.size() == 0) return std::nullopt;
  // Each version costs >= ~30 bytes; an implausible count is corruption, not
  // a reason to pre-allocate gigabytes (same defense as the proto codec).
  proto::wire::list<std::uint64_t>(
      r, snap.versions, proto::wire::Seq{30, "version"},
      [&](store::Version& v) {
        fields(r, v);
        if (v.dv.size() == 0) r.fail("empty dependency vector");
      });
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return snap;
}

}  // namespace pocc::wal
