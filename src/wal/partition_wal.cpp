#include "wal/partition_wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/assert.hpp"
#include "wal/wal_format.hpp"

namespace pocc::wal {

namespace fs = std::filesystem;

namespace {

std::string segment_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string snapshot_name(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%08llu.snap",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Parse "<prefix>-<8 digits>.<ext>" → seq; nullopt for foreign files.
std::optional<std::uint64_t> parse_seq(const std::string& name,
                                       const char* prefix, const char* ext) {
  const std::size_t plen = std::strlen(prefix);
  if (name.size() != plen + 1 + 8 + std::strlen(ext) ||
      name.compare(0, plen, prefix) != 0 || name[plen] != '-' ||
      name.compare(plen + 9, std::string::npos, ext) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = plen + 1; i < plen + 9; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

std::vector<std::uint64_t> list_seqs(const std::string& dir,
                                     const char* prefix, const char* ext) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (const auto seq = parse_seq(entry.path().filename().string(), prefix,
                                   ext)) {
      seqs.push_back(*seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> data;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return data;
  for (;;) {
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    data.insert(data.end(), chunk, chunk + n);
  }
  ::close(fd);
  return data;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory so renames/creates within it are durable.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

PartitionWal::PartitionWal(std::string dir, Options opt)
    : dir_(std::move(dir)), opt_(opt) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  POCC_ASSERT_MSG(!ec, "cannot create WAL directory");
  // Leftover in-flight snapshots are dead: the checkpoint they belonged to
  // never committed (rename is the commit point).
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
  const auto segments = list_seqs(dir_, "wal", ".log");
  seq_ = segments.empty() ? 1 : segments.back();
  open_active_segment(/*truncate_torn=*/!segments.empty());
}

PartitionWal::~PartitionWal() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
  }
}

void PartitionWal::open_active_segment(bool truncate_torn) {
  const std::string path = dir_ + "/" + segment_name(seq_);
  if (truncate_torn) {
    // An interrupted group commit leaves a torn tail; cut back to the last
    // complete record so appends resume on a clean boundary.
    const auto data = read_file(path);
    const ScanResult scan =
        scan_records(data.data(), data.size(), [](const Record&) {});
    replay_torn_bytes_ = data.size() - scan.valid_bytes;
    if (scan.torn) {
      const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd >= 0) {
        POCC_ASSERT(::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) ==
                    0);
        ::fsync(fd);
        ::close(fd);
      }
    }
    active_segment_bytes_ = scan.valid_bytes;
  } else {
    active_segment_bytes_ = 0;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  POCC_ASSERT_MSG(fd_ >= 0, "cannot open WAL segment for append");
  if (!truncate_torn) sync_dir(dir_);
}

void PartitionWal::log_version(const store::Version& v) {
  append_version_record(buf_, v);
}

void PartitionWal::log_vv(const VersionVector& vv) {
  append_vv_record(buf_, vv);
}

void PartitionWal::sync() {
  if (buf_.empty()) return;
  POCC_ASSERT_MSG(write_all(fd_, buf_.data(), buf_.size()),
                  "WAL append failed");
  POCC_ASSERT_MSG(::fdatasync(fd_) == 0, "WAL fdatasync failed");
  active_segment_bytes_ += buf_.size();
  synced_bytes_.inc(buf_.size());
  syncs_.inc();
  buf_.clear();
}

PartitionWal::ReplayStats PartitionWal::replay(
    const std::function<void(const store::Version&)>& on_version,
    const std::function<void(const VersionVector&)>& on_vv) {
  ReplayStats stats;
  stats.torn_bytes = replay_torn_bytes_;

  // Newest valid snapshot wins; a corrupt file falls back to the previous
  // one (pruning keeps the older snapshot's segment suffix on disk until a
  // newer snapshot commits).
  std::uint64_t replay_from = 0;
  auto snaps = list_seqs(dir_, "snap", ".snap");
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const auto data = read_file(dir_ + "/" + snapshot_name(*it));
    const auto snap = decode_snapshot(data.data(), data.size());
    if (!snap.has_value()) continue;
    for (const store::Version& v : snap->versions) on_version(v);
    on_vv(snap->vv);
    stats.snapshot_loaded = true;
    stats.snapshot_versions = snap->versions.size();
    replay_from = *it;
    break;
  }

  for (const std::uint64_t seq : list_seqs(dir_, "wal", ".log")) {
    if (seq < replay_from) continue;
    const auto data = read_file(dir_ + "/" + segment_name(seq));
    const ScanResult scan =
        scan_records(data.data(), data.size(), [&](const Record& rec) {
          if (rec.kind == RecordKind::kVersion) {
            on_version(rec.version);
            ++stats.log_versions;
          } else {
            on_vv(rec.vv);
            ++stats.vv_records;
          }
        });
    ++stats.segments_replayed;
    // A torn record mid-chain (not the newest segment, whose tail was
    // already truncated at open) means later segments post-date lost data;
    // stop rather than replay past a hole.
    if (scan.torn && seq != seq_) break;
  }
  return stats;
}

std::uint64_t PartitionWal::begin_checkpoint() {
  sync();
  ::close(fd_);
  ++seq_;
  checkpoint_pending_ = true;
  open_active_segment(/*truncate_torn=*/false);
  return seq_;
}

bool PartitionWal::commit_checkpoint(std::uint64_t seq,
                                     const std::vector<std::uint8_t>& body) {
  const std::string tmp = dir_ + "/" + snapshot_name(seq) + ".tmp";
  const std::string final_path = dir_ + "/" + snapshot_name(seq);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  bool ok = fd >= 0 && write_all(fd, body.data(), body.size()) &&
            ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  ok = ok && ::rename(tmp.c_str(), final_path.c_str()) == 0;
  checkpoint_pending_ = false;
  if (!ok) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  sync_dir(dir_);

  // Prune: keep this snapshot and the previous one (bit-rot fallback), plus
  // every segment the *older kept* snapshot still needs.
  auto snaps = list_seqs(dir_, "snap", ".snap");
  std::uint64_t keep_floor = seq;
  if (snaps.size() >= 2) keep_floor = snaps[snaps.size() - 2];
  std::error_code ec;
  for (const std::uint64_t s : snaps) {
    if (s < keep_floor) fs::remove(dir_ + "/" + snapshot_name(s), ec);
  }
  for (const std::uint64_t s : list_seqs(dir_, "wal", ".log")) {
    if (s < keep_floor) fs::remove(dir_ + "/" + segment_name(s), ec);
  }
  sync_dir(dir_);
  return true;
}

}  // namespace pocc::wal
