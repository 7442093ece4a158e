// Driven client pools: a TcpClientPool has no transport thread, and its
// sessions drive its sockets. Pins the shapes that replace the thread —
// blocking sessions sharing the sockets leader/follower (the pass handed on
// by a wake, never left to a timer), one pipelining thread reading its own
// replies with its sends still coalesced, and a server restart redialled by
// pumps alone — and the pool's one socket per server worker: the
// partitions a worker hosts share its connection, placed on its loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_transport.hpp"
#include "proto/codec.hpp"
#include "store/key_space.hpp"
#include "tcp_deployment.hpp"

namespace pocc::net {
namespace {

using testutil::Deployment;
using testutil::eventually;
using testutil::expect_clean_replay;
using testutil::Shape;

/// The `n`-th key with `prefix` that a 2-partition DC places on `part`.
std::string key_on(PartitionId part, const std::string& prefix, int n = 0) {
  for (int i = 0;; ++i) {
    const std::string key = prefix + std::to_string(i);
    if (store::KeySpace::global().partition(store::intern_key(key), 2,
                                            PartitionScheme::kHash) == part &&
        n-- == 0) {
      return key;
    }
  }
}

/// Every inbound socket of dc's host but its peer processes' replication
/// links (one from each other DC): the sockets its clients opened. The
/// count settles before it is read — a wrong count must not hide behind an
/// accept still in flight.
std::uint64_t client_accepts(Deployment& cluster, DcId dc,
                             std::uint64_t expected) {
  const std::uint64_t peers = cluster.layout().topology.num_dcs - 1;
  const auto count = [&] {
    return cluster.host(dc).transport_stats().accepts - peers;
  };
  eventually(2'000'000, [&] { return count() >= expected; });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  return count();
}

/// A request answered on every partition of dc 0, and a dc-1 write read at
/// dc 0: dc 0's host has accepted its peer's link and every primary client
/// socket.
void settle(Deployment& cluster) {
  TcpSession& s = cluster.connect(0);
  for (PartitionId p = 0; p < 2; ++p) {
    ASSERT_TRUE(s.get(key_on(p, "client:settle:")).ok);
  }
  ASSERT_TRUE(cluster.connect(1).put("client:settle:geo", "v").ok);
  ASSERT_TRUE(eventually(5'000'000, [&] {
    return s.get("client:settle:geo").value == "v";
  }));
}

/// One thread drives 16 sessions of dc 0 through start_*/pump/finish_*,
/// 40 ops each (one in five a PUT); session i draws its keys from
/// `key(i, rng)`. Returns the ops that failed.
int pipeline_sessions(Deployment& cluster,
                      const std::function<std::string(int, Rng&)>& key) {
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
  int failures = 0;
  for (bool all_done = false; !all_done;) {
    all_done = true;
    bool progress = false;
    for (int i = 0; i < kSessions; ++i) {
      Slot& sl = slots[i];
      if (sl.done == kOpsPerSession) continue;
      all_done = false;
      if (!sl.s->op_pending()) {
        const std::string k = key(i, sl.rng);
        sl.put = sl.rng.uniform(5) == 0;
        const bool started = sl.put
                                 ? sl.s->start_put(k, std::to_string(sl.done))
                                 : sl.s->start_get(k);
        EXPECT_TRUE(started);
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
  return failures;
}

TEST(TcpClient, PoolOpensOneSocketPerServerWorker) {
  // The benchmark shape: 2 DCs, both partitions of a DC on one worker. The
  // pool dials that worker once, and both partitions ride the socket.
  Deployment cluster(SystemKind::kPocc, /*resilience=*/nullptr,
                     /*block_timeout_us=*/2'000'000, Shape{2, 1});
  settle(cluster);
  TcpClientPool& pool = cluster.pool(0);
  EXPECT_EQ(pool.conn_of(0), pool.conn_of(1));
  EXPECT_EQ(pool.connections(), std::vector<ConnId>{pool.conn_of(0)});
  EXPECT_EQ(client_accepts(cluster, 0, 1), 1u);
}

TEST(TcpClient, ResilientPoolOpensOneSiblingPerServerWorker) {
  ClientResilience res;
  res.enabled = true;
  Deployment cluster(SystemKind::kPocc, &res, /*block_timeout_us=*/2'000'000,
                     Shape{2, 1});
  settle(cluster);
  TcpClientPool& pool = cluster.pool(0);
  EXPECT_EQ(pool.conn_of(1, 1), pool.conn_of(0, 1));
  EXPECT_EQ(pool.connections(),
            (std::vector<ConnId>{pool.conn_of(0, 0), pool.conn_of(0, 1)}));
  EXPECT_EQ(client_accepts(cluster, 0, 2), 2u);
}

TEST(TcpClient, PoolDialsEachWorkerOfAShardedHostOnItsLoop) {
  // Two workers per host: one socket per worker, each greeted for its
  // worker's partition and so placed on the loop that drives it.
  Deployment cluster(SystemKind::kPocc, /*resilience=*/nullptr,
                     /*block_timeout_us=*/2'000'000, Shape{2, 2});
  settle(cluster);
  TcpClientPool& pool = cluster.pool(0);
  EXPECT_NE(pool.conn_of(0), pool.conn_of(1));
  EXPECT_EQ(pool.connections().size(), 2u);
  EXPECT_EQ(client_accepts(cluster, 0, 2), 2u);
  TcpNodeHost& host = cluster.host(0);
  for (PartitionId p = 0; p < 2; ++p) {
    TcpSession& s = cluster.connect(0);
    ASSERT_TRUE(s.put(key_on(p, "client:loop:"), "v").ok);
    EXPECT_EQ(host.client_loop(s.id()),
              static_cast<std::int32_t>(host.group().worker_of(p)))
        << "partition " << p;
  }
  EXPECT_NE(host.group().worker_of(0), host.group().worker_of(1));
}

TEST(TcpClient, PipelinedSessionsOverBothPartitionsShareServerSendmsgs) {
  // Half the sessions on each partition, pipelined over the one socket of a
  // one-worker host: the host answers both partitions on that socket, so
  // its replies leave several to a sendmsg.
  Deployment cluster(SystemKind::kPocc, /*resilience=*/nullptr,
                     /*block_timeout_us=*/2'000'000, Shape{2, 1});
  const TransportStats before = cluster.host(0).transport_stats();
  EXPECT_EQ(pipeline_sessions(cluster,
                              [](int session, Rng& rng) {
                                return key_on(
                                    static_cast<PartitionId>(session % 2),
                                    "client:share:",
                                    static_cast<int>(rng.uniform(8)));
                              }),
            0);
  expect_clean_replay(cluster);
  const TransportStats after = cluster.host(0).transport_stats();
  const auto calls = after.sendmsg_calls - before.sendmsg_calls;
  const auto frames = after.sendmsg_frames - before.sendmsg_frames;
  ASSERT_GT(calls, 0u);
  EXPECT_GT(static_cast<double>(frames) / static_cast<double>(calls), 1.0)
      << frames << " frames in " << calls << " sendmsg calls";
}

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
  const TransportStats before = cluster.pool(0).transport_stats();
  EXPECT_EQ(pipeline_sessions(cluster,
                              [](int /*session*/, Rng& rng) {
                                return "client:pipe:" +
                                       std::to_string(rng.uniform(16));
                              }),
            0);
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
