// Durability seam between a protocol engine and its host.
//
// Engines stay pure state machines: they never touch a file descriptor. When
// the host provides a DurabilityLog via Context::durability(), the engine
// appends every state mutation that must survive a crash — version creation
// (local PUTs and remote Replicates) and heartbeat-driven VV raises — and the
// host decides when those appends become durable (group commit, src/wal/).
// Hosts without a log (the simulator, which checkpoints a crashing engine
// with wal::encode_snapshot instead; poccd --no-durability) return nullptr
// and the engine skips the calls entirely.
#pragma once

#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::server {

/// Append-only sink for the engine mutations that must survive a crash.
/// Appends are buffered; the *host* syncs them (the engine never blocks on
/// I/O), and the runtime host withholds every reply/send produced while
/// unsynced bytes exist (output commit) so nothing externally visible ever
/// depends on a lost suffix.
class DurabilityLog {
 public:
  virtual ~DurabilityLog() = default;

  /// A version entered the store (serve_put or on_replicate). Replay must
  /// re-insert it and raise VV[v.sr] to v.ut.
  virtual void log_version(const store::Version& v) = 0;

  /// The VV advanced without a version (heartbeats). Replay must merge-max.
  /// Logged *after* the raise, so a synced VV record never claims versions
  /// that are not themselves synced (appends are ordered).
  virtual void log_vv(const VersionVector& vv) = 0;
};

}  // namespace pocc::server
