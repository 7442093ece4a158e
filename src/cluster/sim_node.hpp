// One simulated server: protocol engine + CPU queue + physical clock,
// implementing the engine's Context against the discrete-event simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "clock/physical_clock.hpp"
#include "common/config.hpp"
#include "net/sim_network.hpp"
#include "server/context.hpp"
#include "server/replica_base.hpp"
#include "sim/cpu_queue.hpp"
#include "sim/simulator.hpp"

namespace pocc::cluster {

class SimNode final : public net::Endpoint, public server::Context {
 public:
  /// Builds a fresh protocol engine against a node's Context (same signature
  /// as rt::NodeGroup::EngineFactory — one factory serves both substrates).
  using EngineFactory = std::function<std::unique_ptr<server::ReplicaBase>(
      NodeId, server::Context&)>;

  /// Builds the node's engine through `make_engine`, which also rebuilds it
  /// on every restart(). Every incarnation registers its series in
  /// `registry`, its data center's.
  SimNode(NodeId self, const ServiceConfig& service,
          const ClockConfig& clock_cfg, sim::Simulator& simulator,
          net::SimNetwork& network, stats::Registry& registry, Rng& seeder,
          EngineFactory make_engine);

  void start();

  // --- fault injection: fail-stop crash with durable storage ---
  /// Kill the process: pending CPU jobs and timers become no-ops (epoch
  /// guard) and the engine's durable image — its multiversion store and
  /// version vector, encoded by wal::encode_snapshot exactly as a poccd
  /// checkpoint writes them — is kept for restart(). The dead engine object
  /// stays inspectable but receives nothing. While down, incoming client
  /// requests are dropped (connection refused — the client library
  /// reconnects), while server-to-server traffic is backlogged in arrival
  /// order: those streams ride the peers' durable replication logs (paper
  /// §II-C lossless FIFO channels), so a process crash delays them but never
  /// tears a hole into them. Rebuilding replica state from a peer's *store*
  /// instead would be unsound: each DC garbage-collects with its own
  /// stability floor, so a peer's store may lack exactly the versions this
  /// DC's snapshots still need.
  void crash();
  /// Reboot: build a fresh engine through the factory and restore the crash
  /// image through wal::decode_snapshot and restore_version/restore_vv —
  /// the calls poccd's disk recovery drives — so every piece of RAM state
  /// (parked requests, pending transactions, aggregation rounds) is gone.
  /// Timers are then re-armed and the backlogged peer streams replayed in
  /// FIFO order through the normal delivery path. Returns the number of
  /// replicated versions recovered from peers this way.
  std::uint64_t restart();
  [[nodiscard]] bool down() const { return down_; }

  [[nodiscard]] NodeId id() const { return self_; }
  server::ReplicaBase& engine() { return *engine_; }
  [[nodiscard]] const server::ReplicaBase& engine() const { return *engine_; }
  sim::CpuQueue& cpu() { return cpu_; }
  PhysicalClock& clock() { return clock_; }

  // --- net::Endpoint ---
  void deliver(NodeId from, proto::Message m) override;

  // --- server::Context ---
  Timestamp clock_now() override { return clock_.read(sim_.now()); }
  Timestamp clock_peek() override { return clock_.peek(sim_.now()); }
  Timestamp time() override { return sim_.now(); }
  void send(NodeId to, proto::Message m) override {
    net_.send(self_, to, std::move(m));
  }
  void reply(ClientId client, proto::Message m) override {
    net_.send_to_client(self_, client, std::move(m));
  }
  void set_timer(Duration delay, std::uint64_t timer_id) override;
  stats::Registry& registry() override { return registry_; }

 private:
  /// A delivered message awaiting its CPU job. `from` and the arrival
  /// sequence are kept so a crash can sweep unprocessed messages into the
  /// crash backlog in arrival order (a dead job must not lose server
  /// traffic: the peer's durable log still holds it).
  struct ParkedMsg {
    proto::Message msg;
    NodeId from;
    std::uint64_t seq = 0;
    bool live = false;
  };

  /// Park a delivered message until its CPU job runs; returns its pool slot.
  std::uint32_t park_message(NodeId from, proto::Message m);
  /// Take the parked message back out, recycling the slot.
  proto::Message unpark_message(std::uint32_t idx);

  NodeId self_;
  sim::Simulator& sim_;
  net::SimNetwork& net_;
  stats::Registry& registry_;
  sim::CpuQueue cpu_;
  PhysicalClock clock_;
  EngineFactory make_engine_;
  std::unique_ptr<server::ReplicaBase> engine_;
  /// wal::encode_snapshot of the engine taken at crash(); empty while up.
  std::vector<std::uint8_t> crash_image_;
  bool down_ = false;
  /// Bumped on crash: CPU jobs and timer events capture the epoch they were
  /// created under and turn into no-ops when it no longer matches.
  std::uint32_t epoch_ = 0;
  /// Server-to-server traffic that arrived while down (peer replication
  /// logs), replayed in arrival order on restart.
  std::deque<std::pair<NodeId, proto::Message>> crash_backlog_;

  // Pool for messages awaiting CPU dispatch: the queued job captures a u32
  // index instead of the ~160-byte message, keeping CpuQueue jobs slim.
  // (std::deque: stable addresses, chunked growth.)
  std::deque<ParkedMsg> parked_messages_;
  std::vector<std::uint32_t> parked_free_;
  std::uint64_t next_arrival_seq_ = 0;
};

}  // namespace pocc::cluster
