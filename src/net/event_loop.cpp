#include "net/event_loop.hpp"

#include <errno.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>

#include "common/assert.hpp"

namespace pocc::net {

namespace {
constexpr std::size_t kMaxEventsPerWait = 256;
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(0);
  POCC_ASSERT_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
}

EventLoop::~EventLoop() { ::close(epoll_fd_); }

void EventLoop::watch(int fd, bool read, bool write) {
  POCC_ASSERT(fd >= 0);
  const auto idx = static_cast<std::size_t>(fd);
  if (idx >= interest_.size()) {
    // Grow geometrically so a dial storm of ascending fds does not
    // reallocate per connection.
    interest_.resize(std::max(idx + 1, interest_.size() * 2));
  }
  Interest& in = interest_[idx];
  const bool known = in.watched;
  if (known && in.read == read && in.write == write) return;
  if (!known) {
    in.watched = true;
    ++watched_count_;
  }
  in.read = read;
  in.write = write;
  epoll_event ev{};
  ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u) | EPOLLRDHUP;
  ev.data.fd = fd;
  int rc =
      ::epoll_ctl(epoll_fd_, known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
  if (rc != 0 && errno == ENOENT) {
    // The kernel dropped the registration behind our back (fd closed and
    // the number recycled); re-add under the fresh identity.
    rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  } else if (rc != 0 && errno == EEXIST) {
    rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
  POCC_ASSERT_MSG(rc == 0, "epoll_ctl failed");
}

void EventLoop::unwatch(int fd) {
  const auto idx = static_cast<std::size_t>(fd);
  if (fd < 0 || idx >= interest_.size() || !interest_[idx].watched) return;
  interest_[idx].watched = false;
  --watched_count_;
  epoll_event ev{};
  // Failure is tolerated here (the caller may race a close), but the table
  // stays exact either way.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

std::size_t EventLoop::wait(int timeout_ms, std::vector<Event>& out) {
  out.clear();
  epoll_event evs[kMaxEventsPerWait];
  const int n = ::epoll_wait(epoll_fd_, evs,
                             static_cast<int>(kMaxEventsPerWait), timeout_ms);
  if (n < 0) {
    // EINTR: a signal landed mid-wait; the event set is unspecified, so
    // report nothing and let the caller re-enter.
    POCC_ASSERT_MSG(errno == EINTR, "epoll_wait failed");
    return 0;
  }
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = evs[i].data.fd;
    e.readable = (evs[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.error = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return out.size();
}

}  // namespace pocc::net
