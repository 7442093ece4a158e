// Shared helpers for engine-level tests: a mock server Context that records
// outbound traffic and lets tests control the clock directly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "proto/messages.hpp"
#include "server/context.hpp"
#include "stats/registry.hpp"

namespace pocc::testutil {

class MockContext : public server::Context {
 public:
  /// Reference time, fully controlled by the test.
  Timestamp now = 0;
  /// The node's physical clock reads now + clock_offset (monotonic).
  Timestamp clock_offset = 0;

  std::vector<std::pair<NodeId, proto::Message>> sent;
  std::vector<std::pair<ClientId, proto::Message>> replies;
  std::vector<std::pair<Timestamp, std::uint64_t>> timers;  // (fire_at, id)

  Timestamp clock_now() override {
    last_clock_ = std::max(last_clock_ + 1, now + clock_offset);
    return last_clock_;
  }
  Timestamp clock_peek() override {
    return std::max(last_clock_, now + clock_offset);
  }
  Timestamp time() override { return now; }
  void send(NodeId to, proto::Message m) override {
    sent.emplace_back(to, std::move(m));
  }
  void reply(ClientId client, proto::Message m) override {
    replies.emplace_back(client, std::move(m));
  }
  void set_timer(Duration delay, std::uint64_t timer_id) override {
    timers.emplace_back(now + delay, timer_id);
  }
  /// Current value of the engine's counter or gauge `name` (summed over
  /// its label sets that include `match`).
  std::uint64_t series(const std::string& name,
                       const stats::Labels& match = {}) {
    return static_cast<std::uint64_t>(registry().snapshot().value(name, match));
  }

  /// All sent messages of type T, with destinations.
  template <typename T>
  std::vector<std::pair<NodeId, T>> sent_of() const {
    std::vector<std::pair<NodeId, T>> out;
    for (const auto& [to, m] : sent) {
      if (std::holds_alternative<T>(m)) out.emplace_back(to, std::get<T>(m));
    }
    return out;
  }

  /// All replies of type T, with client ids.
  template <typename T>
  std::vector<std::pair<ClientId, T>> replies_of() const {
    std::vector<std::pair<ClientId, T>> out;
    for (const auto& [c, m] : replies) {
      if (std::holds_alternative<T>(m)) out.emplace_back(c, std::get<T>(m));
    }
    return out;
  }

  void clear_traffic() {
    sent.clear();
    replies.clear();
    timers.clear();
  }

 private:
  Timestamp last_clock_ = 0;
};

/// Topology used across engine tests: 3 DCs, 2 partitions per DC, prefix keys.
inline TopologyConfig test_topology() {
  TopologyConfig t;
  t.num_dcs = 3;
  t.partitions_per_dc = 2;
  t.partition_scheme = PartitionScheme::kPrefix;
  return t;
}

}  // namespace pocc::testutil
