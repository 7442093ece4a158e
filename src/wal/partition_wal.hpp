// One partition's durable state on disk: a directory of append-only WAL
// segments plus point-in-time snapshots, with group-commit fsync.
//
//   <dir>/wal-<seq>.log    append-only record segments (wal_format.hpp)
//   <dir>/snap-<seq>.snap  snapshot covering every segment with seq' < seq
//   <dir>/snap-<seq>.tmp   in-flight snapshot (ignored by recovery)
//
// Write path (engine owner thread): log_version/log_vv append framed records
// to a userland buffer — *nothing* is externally visible yet; the runtime
// host withholds replies and sends produced while unsynced_bytes() > 0, then
// calls sync() once per drained message batch (group commit: one
// write+fdatasync covers the whole batch). A crash loses at most the
// unsynced suffix, and nothing externally visible depended on it.
//
// Checkpoint path: when the active segment outgrows the threshold the owner
// thread serializes a consistent cut (begin_checkpoint rotates to a fresh
// segment and names the cut), and a background thread makes it durable
// (commit_checkpoint: tmp + fsync + rename + directory fsync) and prunes
// segments/snapshots the new snapshot obsoletes. The previous snapshot and
// its segment suffix are retained until a *newer* snapshot commits, so a
// corrupt snapshot file always leaves a valid older recovery line.
//
// Recovery (replay): newest valid snapshot, then every segment >= its seq in
// order; the newest segment's torn tail — an interrupted group commit — is
// truncated to the last complete record at open time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "server/durability.hpp"
#include "stats/relaxed_counter.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::wal {

class PartitionWal final : public server::DurabilityLog {
 public:
  struct Options {
    /// Active-segment size that triggers a checkpoint (0 = never).
    std::uint64_t checkpoint_bytes = 4u << 20;
  };

  struct ReplayStats {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_versions = 0;
    std::uint64_t log_versions = 0;
    std::uint64_t vv_records = 0;
    std::uint64_t segments_replayed = 0;
    std::uint64_t torn_bytes = 0;  // truncated off the newest segment
  };

  /// Opens (creating if needed) the partition directory, truncates the
  /// newest segment's torn tail, and opens it for appending.
  PartitionWal(std::string dir, Options opt);
  explicit PartitionWal(std::string dir)
      : PartitionWal(std::move(dir), Options()) {}
  ~PartitionWal() override;

  PartitionWal(const PartitionWal&) = delete;
  PartitionWal& operator=(const PartitionWal&) = delete;

  // --- server::DurabilityLog (owner thread) ---
  void log_version(const store::Version& v) override;
  void log_vv(const VersionVector& vv) override;

  /// Bytes appended but not yet covered by a sync() — the output-commit gate.
  [[nodiscard]] std::size_t unsynced_bytes() const { return buf_.size(); }

  /// Group commit: write the buffered records and fdatasync the segment.
  void sync();

  /// Drop appended-but-unsynced records without writing them — what a
  /// kill -9 does to the userland buffer (TcpNodeHost::crash_stop).
  void discard_unsynced() { buf_.clear(); }

  /// Replay the durable image (snapshot + segments) through the callbacks.
  /// Call before the first append of this process's lifetime.
  ReplayStats replay(const std::function<void(const store::Version&)>& on_version,
                     const std::function<void(const VersionVector&)>& on_vv);

  /// True when the active segment crossed the checkpoint threshold.
  [[nodiscard]] bool wants_checkpoint() const {
    return opt_.checkpoint_bytes > 0 && !checkpoint_pending_.load() &&
           active_segment_bytes_ >= opt_.checkpoint_bytes;
  }

  /// Owner thread, step 1: sync the tail, rotate to a fresh segment and
  /// return the sequence number the snapshot will cover (recovery replays
  /// segments >= it). The caller serializes the snapshot body *at this
  /// moment* — the cut is exactly "everything in segments < seq".
  std::uint64_t begin_checkpoint();

  /// Any thread, step 2: durably write `body` as snap-<seq> and prune what
  /// it obsoletes. Returns false on I/O failure (the old recovery line is
  /// left intact). Clears the pending flag armed by begin_checkpoint().
  bool commit_checkpoint(std::uint64_t seq,
                         const std::vector<std::uint8_t>& body);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t active_segment_seq() const { return seq_; }
  [[nodiscard]] std::uint64_t active_segment_bytes() const {
    return active_segment_bytes_;
  }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] std::uint64_t synced_bytes() const { return synced_bytes_; }

 private:
  void open_active_segment(bool truncate_torn);

  std::string dir_;
  Options opt_;
  int fd_ = -1;
  std::uint64_t seq_ = 1;  // active segment sequence number
  std::uint64_t active_segment_bytes_ = 0;
  std::vector<std::uint8_t> buf_;  // appended, not yet written+synced
  /// Set by the owner's begin_checkpoint, cleared by the flusher thread's
  /// commit_checkpoint.
  std::atomic<bool> checkpoint_pending_{false};
  // Relaxed so a live /metrics scrape may read them off the owner thread.
  stats::RelaxedU64 syncs_;
  stats::RelaxedU64 synced_bytes_;
  std::uint64_t replay_torn_bytes_ = 0;
};

}  // namespace pocc::wal
