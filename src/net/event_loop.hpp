// Readiness-notification seam of the TCP transport: one EventLoop per
// transport shard, a thin wrapper over epoll(7).
//
// The abstraction is deliberately thin — registration (watch/unwatch) plus
// one blocking wait() — because the transport keeps its own per-connection
// state and recomputes interest each loop pass; the EventLoop's job is to
// turn that interest into O(ready) wakeups, and to make re-watching an fd
// with unchanged interest free (no syscall).
//
// Syscall discipline (scripts/check_syscalls.sh): every epoll_wait return
// value is checked here. EINTR yields an empty ready set — the caller
// re-enters its loop and re-evaluates timers, which is exactly what a
// spurious wakeup costs; any other failure asserts with the errno, never
// consumes unspecified events.
#pragma once

#include <cstddef>
#include <vector>

namespace pocc::net {

class EventLoop {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// EPOLLERR/EPOLLHUP-class condition. May accompany readable (pending
    /// bytes are still delivered before EOF).
    bool error = false;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register or update interest in `fd`. Idempotent and cheap when the
  /// interest did not change (no syscall). `read`/`write` both false is a
  /// valid parked registration (error conditions still reported).
  void watch(int fd, bool read, bool write);

  /// Drop `fd` from the set. Must be called before the fd is closed, so the
  /// interest table never describes a recycled fd number. No-op when the fd
  /// is not registered.
  void unwatch(int fd);

  /// Block up to `timeout_ms` (-1 = indefinitely, 0 = poll) and append the
  /// ready fds to `out` (cleared first), one event per fd. Returns the
  /// number of events. EINTR returns 0 — callers treat it as a timer-less
  /// spurious wakeup.
  std::size_t wait(int timeout_ms, std::vector<Event>& out);

  [[nodiscard]] std::size_t watched() const { return watched_count_; }

 private:
  // Flat fd-indexed interest table (grown lazily to the highest watched
  // fd): the unchanged-interest check on the hot path is an O(1) load
  // instead of a hash lookup.
  struct Interest {
    bool watched = false;
    bool read = false;
    bool write = false;
  };

  int epoll_fd_ = -1;
  std::vector<Interest> interest_;
  std::size_t watched_count_ = 0;
};

}  // namespace pocc::net
