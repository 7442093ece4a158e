// On-disk encoding of the per-partition write-ahead log and snapshots.
//
// Every field is written and read through the proto codec's field lists
// (proto/wire.hpp): a kVersion payload after its kind byte is byte-identical
// to a Replicate message's payload, and a vector is laid out as on the wire.
//
// WAL record framing (little-endian, length-prefixed, checksummed,
// defensively decoded):
//
//   u32  payload length
//   u32  CRC-32 of the payload (common/crc32.hpp)
//   ...  payload: u8 record kind, then the kind's fields
//
// Kinds:
//   kVersion — one store::Version: the key as its *original string* (KeyIds
//              are per-process; a restarted process re-interns), value, sr,
//              ut, dependency vector, opt_origin flag. Replay re-inserts the
//              version and raises VV[sr] to ut.
//   kVv      — a full version vector (heartbeat-driven raises that no
//              version record implies). Replay merge-maxes.
//
// A record or snapshot entry whose vector is empty is rejected as corrupt:
// engines never log one.
//
// Snapshot file layout:
//
//   8 bytes  magic "POCCSNP1"
//   u32      body length
//   u32      CRC-32 of the body
//   body     vv, u64 version count, then each version (same field encoding
//            as a kVersion payload, sans the kind byte)
//
// Scanning is prefix-exact: a torn or corrupted record ends the scan at the
// last fully valid record boundary — never a crash, never garbage handed to
// the caller (fuzzed by tests/wal_fuzz_test.cpp at every byte offset).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "store/partition_store.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::wal {

enum class RecordKind : std::uint8_t {
  kVersion = 1,
  kVv = 2,
};

/// One decoded WAL record. `version` is meaningful for kVersion, `vv` for
/// kVv.
struct Record {
  RecordKind kind = RecordKind::kVersion;
  store::Version version;
  VersionVector vv;
};

/// Append one framed kVersion record to `out`.
void append_version_record(std::vector<std::uint8_t>& out,
                           const store::Version& v);

/// Append one framed kVv record to `out`.
void append_vv_record(std::vector<std::uint8_t>& out, const VersionVector& vv);

struct ScanResult {
  std::uint64_t records = 0;    // valid records delivered to the callback
  std::size_t valid_bytes = 0;  // prefix length covered by those records
  bool torn = false;            // trailing bytes were not a valid record
};

/// Decode framed records from the front of [data, data+len) in order,
/// invoking `fn` for each valid one. Stops at the first record whose length
/// frame, CRC or payload does not check out; `valid_bytes` is the safe
/// truncation point.
ScanResult scan_records(const std::uint8_t* data, std::size_t len,
                        const std::function<void(const Record&)>& fn);

/// Serialize a consistent cut of one partition: the engine's VV plus every
/// version chain. Must run on the store's owner thread (reads chains()).
std::vector<std::uint8_t> encode_snapshot(const store::PartitionStore& store,
                                          const VersionVector& vv);

struct SnapshotData {
  VersionVector vv;
  std::vector<store::Version> versions;
};

/// Validate + decode a snapshot file image. nullopt on any mismatch (bad
/// magic, length, CRC, or payload) — the caller falls back to an older
/// snapshot or a full log replay.
std::optional<SnapshotData> decode_snapshot(const std::uint8_t* data,
                                            std::size_t len);

}  // namespace pocc::wal
