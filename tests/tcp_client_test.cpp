// Driven client pools: a TcpClientPool has no transport thread, and its
// sessions drive its sockets. Pins the shapes that replace the thread —
// blocking sessions sharing the sockets leader/follower (the pass handed on
// by a wake, never left to a timer), one pipelining thread reading its own
// replies with its sends still coalesced, and a server restart redialled by
// pumps alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_transport.hpp"
#include "proto/codec.hpp"
#include "tcp_deployment.hpp"

namespace pocc::net {
namespace {

using testutil::Deployment;
using testutil::expect_clean_replay;

TEST(TcpClient, StartedPoolHasNoLoopThreads) {
  Deployment cluster(SystemKind::kPocc);
  TcpClientPool& pool = cluster.pool(0);
  EXPECT_TRUE(pool.transport().loop_thread_handles().empty());
  TcpSession& s = cluster.connect(0);
  ASSERT_TRUE(s.put("client:threads", "v").ok);
  const auto got = s.get("client:threads");
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.value, "v");
  EXPECT_TRUE(pool.transport().loop_thread_handles().empty());
}

TEST(TcpClient, BlockingThreadsShareThePoolLeaderFollower) {
  // Eight threads block on one pool at once: one leads (waits in the
  // transport and delivers everyone's replies), the others sleep on their
  // mailboxes. A leader whose op completes wakes a waiter to take over, so
  // no follower's wait ever ends on its timer.
  Deployment cluster(SystemKind::kPocc);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100;
  std::vector<TcpSession*> sessions;
  for (int i = 0; i < kThreads; ++i) sessions.push_back(&cluster.connect(0));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x1eadULL + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "client:lf:" + std::to_string(rng.uniform(16));
        const bool ok = rng.uniform(4) == 0
                            ? sessions[t]->put(key, std::to_string(i)).ok
                            : sessions[t]->get(key).ok;
        if (!ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  expect_clean_replay(cluster);
  const ClientDriveStats d = cluster.pool(0).drive_stats();
  EXPECT_GT(d.handoffs, 0u) << "the pass was never handed to a waiter";
  EXPECT_EQ(d.timer_expiries, 0u)
      << "a waiting session had to time out to make progress";
}

TEST(TcpClient, OnePipeliningThreadCoalescesWithoutWakes) {
  // One thread keeps 16 sessions in flight through start_*/pump/finish_*:
  // its pumps read the replies, nobody blocks in the transport, so no
  // wake-pipe byte is ever written; and its sends still leave in bursts
  // (one direct write per pass, the rest flushed together by the next).
  Deployment cluster(SystemKind::kPocc);
  constexpr int kSessions = 16;
  constexpr int kOpsPerSession = 40;
  struct Slot {
    TcpSession* s = nullptr;
    Rng rng{0};
    int done = 0;
    bool put = false;
  };
  std::vector<Slot> slots(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    slots[i].s = &cluster.connect(0);
    slots[i].rng = Rng(0x5107ULL + i);
  }
  const TransportStats before = cluster.pool(0).transport_stats();
  int failures = 0;
  for (bool all_done = false; !all_done;) {
    all_done = true;
    bool progress = false;
    for (Slot& sl : slots) {
      if (sl.done == kOpsPerSession) continue;
      all_done = false;
      if (!sl.s->op_pending()) {
        const std::string key =
            "client:pipe:" + std::to_string(sl.rng.uniform(16));
        sl.put = sl.rng.uniform(5) == 0;
        ASSERT_TRUE(sl.put ? sl.s->start_put(key, std::to_string(sl.done))
                           : sl.s->start_get(key));
        progress = true;
      }
      if (sl.s->pump()) {
        const bool ok = sl.put ? sl.s->finish_put().ok : sl.s->finish_get().ok;
        if (!ok) ++failures;
        ++sl.done;
        progress = true;
      }
    }
    if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(failures, 0);
  expect_clean_replay(cluster);
  const TransportStats after = cluster.pool(0).transport_stats();
  EXPECT_EQ(after.wake_writes, 0u);
  const auto calls = after.sendmsg_calls - before.sendmsg_calls;
  const auto frames = after.sendmsg_frames - before.sendmsg_frames;
  ASSERT_GT(calls, 0u);
  EXPECT_GT(static_cast<double>(frames) / static_cast<double>(calls), 1.0)
      << frames << " frames in " << calls << " sendmsg calls";
}

/// A one-partition stand-in server answering every GET ("not found") on a
/// given port.
class EchoServer {
 public:
  explicit EchoServer(std::uint16_t port)
      : transport_(
            TcpTransport::Callbacks{
                [this](ConnId conn, proto::Frame f) {
                  const auto* m = std::get_if<proto::Message>(&f);
                  if (m == nullptr) return;  // the pool's ClientHello
                  const auto* get = std::get_if<proto::GetReq>(m);
                  ASSERT_NE(get, nullptr);
                  proto::GetReply rep;
                  rep.client = get->client;
                  rep.op_id = get->op_id;
                  rep.item.key = get->key;
                  std::vector<std::uint8_t> frame;
                  proto::encode(proto::Message{rep}, frame);
                  transport_.send(conn, std::move(frame));
                },
                nullptr,
                nullptr,
                nullptr,
                nullptr,
            },
            TcpTransport::Options{}) {
    port_ = transport_.listen(port);
    transport_.start();
  }
  ~EchoServer() { transport_.stop(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  TcpTransport transport_;
  std::uint16_t port_ = 0;
};

TEST(TcpClient, PumpsAloneRedialARestartedServer) {
  ClusterLayout layout;
  layout.topology.num_dcs = 1;
  layout.topology.partitions_per_dc = 1;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  auto server = std::make_unique<EchoServer>(0);
  const std::uint16_t port = server->port();
  TcpClientPool pool(layout, 0,
                     {NodeAddress{NodeId{0, 0}, "127.0.0.1", port}});
  ClientResilience res;
  res.enabled = true;
  pool.set_resilience(res);
  pool.start();
  ASSERT_TRUE(pool.wait_connected(5'000'000));
  TcpSession& s = pool.connect(1);
  ASSERT_TRUE(s.get("client:restart").ok);

  server.reset();  // the pool's socket sees EOF on its next pass
  server = std::make_unique<EchoServer>(port);

  // Nothing but pumps from here on: no wait_connected, no blocking call.
  ASSERT_TRUE(s.start_get("client:restart", /*timeout_us=*/10'000'000));
  while (!s.pump()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto got = s.finish_get();
  EXPECT_TRUE(got.ok);
  EXPECT_GE(pool.transport_stats().reconnects, 1u);
  EXPECT_TRUE(pool.transport().connected(pool.conn_of(0)));
  EXPECT_TRUE(pool.transport().loop_thread_handles().empty());
  pool.stop();
}

}  // namespace
}  // namespace pocc::net
