// net::EventLoop unit tests: the epoll readiness contract —
// level-triggered readable/writable edges on pipes and socketpairs, timeout
// behavior, idempotent watch/unwatch, and the EINTR discipline (an
// interrupted wait returns an EMPTY ready set instead of acting on
// unspecified events — the regression behind this test file).
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/event_loop.hpp"

namespace pocc::net {
namespace {

struct PipePair {
  int r = -1;
  int w = -1;
  PipePair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    r = fds[0];
    w = fds[1];
    ::fcntl(r, F_SETFL, O_NONBLOCK);
    ::fcntl(w, F_SETFL, O_NONBLOCK);
  }
  ~PipePair() {
    if (r >= 0) ::close(r);
    if (w >= 0) ::close(w);
  }
};

const EventLoop::Event* find_fd(const std::vector<EventLoop::Event>& evs,
                                int fd) {
  for (const auto& e : evs) {
    if (e.fd == fd) return &e;
  }
  return nullptr;
}

TEST(EventLoop, ReportsReadableWhenBytesArrive) {
  EventLoop loop;
  PipePair p;
  loop.watch(p.r, /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.watched(), 1u);

  std::vector<EventLoop::Event> evs;
  EXPECT_EQ(loop.wait(0, evs), 0u);  // nothing pending yet

  ASSERT_EQ(::write(p.w, "x", 1), 1);
  ASSERT_GT(loop.wait(1000, evs), 0u);
  const EventLoop::Event* e = find_fd(evs, p.r);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->readable);
  EXPECT_FALSE(e->writable);
}

TEST(EventLoop, ReportsWritableOnIdleSocketButNotPipeReadEnd) {
  EventLoop loop;
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  loop.watch(sv[0], /*read=*/true, /*write=*/true);

  std::vector<EventLoop::Event> evs;
  ASSERT_GT(loop.wait(1000, evs), 0u);
  const EventLoop::Event* e = find_fd(evs, sv[0]);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->writable);  // empty send buffer
  EXPECT_FALSE(e->readable);

  // Dropping write interest must stop the level-triggered writable storm.
  loop.watch(sv[0], /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.wait(0, evs), 0u);

  loop.unwatch(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(EventLoop, PeerCloseReportsReadableEof) {
  EventLoop loop;
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  loop.watch(sv[0], /*read=*/true, /*write=*/false);
  ::close(sv[1]);

  // EOF surfaces as readable (recv returning 0), whether epoll tags it
  // EPOLLRDHUP/EPOLLHUP or plain IN — the transport just needs a wakeup.
  std::vector<EventLoop::Event> evs;
  ASSERT_GT(loop.wait(1000, evs), 0u);
  const EventLoop::Event* e = find_fd(evs, sv[0]);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->readable || e->error);

  loop.unwatch(sv[0]);
  ::close(sv[0]);
}

TEST(EventLoop, WaitHonorsTimeout) {
  EventLoop loop;
  PipePair p;
  loop.watch(p.r, /*read=*/true, /*write=*/false);

  // The wait contract allows spurious early returns with zero events
  // (EINTR-class interruptions). Callers re-enter for the remaining budget;
  // so does the test.
  const auto start = std::chrono::steady_clock::now();
  std::vector<EventLoop::Event> evs;
  long elapsed_ms = 0;
  for (;;) {
    EXPECT_EQ(loop.wait(static_cast<int>(50 - elapsed_ms), evs), 0u);
    elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (elapsed_ms >= 50 || !evs.empty()) break;
  }
  EXPECT_GE(elapsed_ms, 40);  // scheduler slop allowed, not a busy spin
}

TEST(EventLoop, UnwatchRemovesAndRewatchRestores) {
  EventLoop loop;
  PipePair p;
  loop.watch(p.r, true, false);
  ASSERT_EQ(::write(p.w, "x", 1), 1);

  loop.unwatch(p.r);
  EXPECT_EQ(loop.watched(), 0u);
  std::vector<EventLoop::Event> evs;
  EXPECT_EQ(loop.wait(0, evs), 0u);

  // Re-watching the same fd must work (epoll ADD-after-DEL path) and the
  // level-triggered byte is still there.
  loop.watch(p.r, true, false);
  ASSERT_GT(loop.wait(1000, evs), 0u);
  EXPECT_NE(find_fd(evs, p.r), nullptr);

  // watch() is idempotent: repeating the same interest is a no-op, changing
  // it is a MOD — neither may error or duplicate events.
  loop.watch(p.r, true, false);
  loop.watch(p.r, true, true);
  loop.watch(p.r, true, false);
  ASSERT_GT(loop.wait(1000, evs), 0u);
  std::size_t hits = 0;
  for (const auto& e : evs) {
    if (e.fd == p.r) ++hits;
  }
  EXPECT_EQ(hits, 1u);
}

TEST(EventLoop, InterruptedWaitReturnsEmptySetAndSurvives) {
  // The EINTR contract: a signal landing inside wait() yields ZERO events
  // (never unspecified garbage), and the loop keeps working afterwards.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART — the wait must actually take the EINTR
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  EventLoop loop;
  PipePair p;
  loop.watch(p.r, true, false);

  std::atomic<bool> done{false};
  const pthread_t waiter = pthread_self();
  std::thread pepper([&] {
    while (!done.load()) {
      pthread_kill(waiter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Interrupted waits return 0 events; eventually the write lands and the
  // loop still reports it despite the ongoing signal storm.
  std::vector<EventLoop::Event> evs;
  for (int i = 0; i < 20; ++i) {
    loop.wait(5, evs);
    for (const auto& e : evs) EXPECT_EQ(e.fd, p.r);
  }
  ASSERT_EQ(::write(p.w, "x", 1), 1);
  bool saw = false;
  for (int i = 0; i < 200 && !saw; ++i) {
    loop.wait(10, evs);
    saw = find_fd(evs, p.r) != nullptr;
  }
  done.store(true);
  pepper.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
  EXPECT_TRUE(saw);
}

TEST(EventLoop, RewatchWithUnchangedInterestMakesNoSyscall) {
  // The transport re-asserts every connection's interest on each loop pass;
  // an unchanged interest must stay in userspace. Closing the fd behind the
  // loop's back makes any epoll_ctl on it fail (and assert), so surviving
  // the re-watch proves none was issued.
  EventLoop loop;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  loop.watch(fds[0], /*read=*/true, /*write=*/false);
  ::close(fds[0]);
  ::close(fds[1]);
  loop.watch(fds[0], /*read=*/true, /*write=*/false);
  EXPECT_EQ(loop.watched(), 1u);
  loop.unwatch(fds[0]);  // a failed EPOLL_CTL_DEL is tolerated
  EXPECT_EQ(loop.watched(), 0u);
}

}  // namespace
}  // namespace pocc::net
