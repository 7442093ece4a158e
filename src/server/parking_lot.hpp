// Parked (stalled) requests — the heart of OCC's lazy dependency resolution.
//
// When a server cannot serve a request yet ("wait until VV >= RDV", Alg. 2
// lines 2/6/7/40) the request is parked with a readiness predicate and
// resumed, in FIFO order, once the predicate holds. poke() re-evaluates the
// lot and must be called whenever server state that predicates read (version
// vector, GSS, physical clock) advances.
//
// Parked requests may carry a deadline; expired requests are failed instead of
// resumed. HA-POCC uses this to detect network partitions (§III-B: "A network
// partition can be identified by p if it blocks for more than a configurable
// amount of time").
#pragma once

#include <cstdint>
#include <functional>
#include <list>

#include "common/types.hpp"

namespace pocc::server {

class ParkingLot {
 public:
  /// Returns true when the parked request can be served.
  using ReadyFn = std::function<bool()>;
  /// Resumes the request. `blocked_us` is how long it was parked.
  using ResumeFn = std::function<void(Duration blocked_us)>;
  /// Called instead of resume when the deadline expires.
  using TimeoutFn = std::function<void(Duration blocked_us)>;

  /// Park a request at reference time `now`. `deadline_us` <= 0 disables the
  /// timeout. Returns a ticket usable for targeted cancellation.
  std::uint64_t park(Timestamp now, ReadyFn ready, ResumeFn resume,
                     Duration deadline_us = 0, TimeoutFn on_timeout = nullptr);

  /// Resume every parked request whose predicate now holds (FIFO order).
  /// Returns the number of requests resumed.
  std::size_t poke(Timestamp now);

  /// Fail every parked request whose deadline passed. Returns count.
  std::size_t expire(Timestamp now);

  /// Earliest deadline among parked requests, or kTimestampMax.
  [[nodiscard]] Timestamp next_deadline() const;

  [[nodiscard]] std::size_t size() const { return parked_.size(); }
  [[nodiscard]] bool empty() const { return parked_.empty(); }

  /// Fail-and-drop all parked requests (e.g. session teardown). Each entry's
  /// timeout handler (when present) is invoked.
  void drain(Timestamp now);

 private:
  struct Entry {
    std::uint64_t ticket;
    Timestamp parked_at;
    Timestamp deadline;  // kTimestampMax when no deadline
    ReadyFn ready;
    ResumeFn resume;
    TimeoutFn on_timeout;
  };

  std::list<Entry> parked_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace pocc::server
