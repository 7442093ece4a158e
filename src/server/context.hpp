// Host-abstraction boundary for protocol engines.
//
// Engines (POCC, Cure*, HA-POCC, and the client protocol) are pure state
// machines: they never touch a socket, a thread or a wall clock. Everything
// environmental flows through this interface, implemented by
//   * the discrete-event host (cluster/sim_node.*) — deterministic
//     reproduction of the paper's figures, and
//   * the TCP host (runtime/node_group.*, one Context per hosted
//     partition, behind net/tcp_node_host.*) — the production deployment.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "proto/messages.hpp"
#include "stats/registry.hpp"

namespace pocc::server {

class DurabilityLog;

/// Environment provided to a server engine.
class Context {
 public:
  virtual ~Context() = default;

  /// Read this node's physical clock, advancing it (strictly monotonic).
  /// Used when creating update timestamps (Alg. 2 line 8).
  virtual Timestamp clock_now() = 0;

  /// Observe the physical clock without creating a timestamp.
  virtual Timestamp clock_peek() = 0;

  /// Reference time (virtual time in the simulator, steady clock in the
  /// runtime). Used only for measurements and timeouts, never for protocol
  /// timestamps.
  virtual Timestamp time() = 0;

  /// Send a message to another server over the FIFO network.
  virtual void send(NodeId to, proto::Message m) = 0;

  /// Reply to a client session.
  virtual void reply(ClientId client, proto::Message m) = 0;

  /// Request an `on_timer(timer_id)` callback after `delay`. One-shot; engines
  /// re-arm periodic timers themselves.
  virtual void set_timer(Duration delay, std::uint64_t timer_id) = 0;

  /// Write-ahead log for mutations that must survive a crash, or nullptr when
  /// the host provides no durability (see server/durability.hpp). The engine
  /// appends; the host syncs and holds outputs until the sync lands.
  virtual DurabilityLog* durability() { return nullptr; }

  /// Where the engine registers its `pocc_engine_*{part}` series: the
  /// process's registry in the runtime, the data center's in the simulator.
  /// A host that reads no series (the benchmark's replay) may keep this
  /// Context's own.
  virtual stats::Registry& registry() { return registry_; }

 private:
  stats::Registry registry_;
};

}  // namespace pocc::server
