// End-to-end TCP deployment: a 3-DC x 2-partition cluster hosted by THREE
// multi-partition TcpNodeHosts (one per DC, two worker threads each — the
// poccd group topology) behind real localhost sockets (ephemeral ports),
// driven by TcpClientPool sessions — the same classes poccd / pocc_loadgen
// are built from, minus the process boundary (scripts/e2e_local_cluster.sh
// covers that in CI). Verifies read-your-writes, the cross-DC WC-DEP causal
// chain, and a concurrent mixed load whose full client history replays
// through the HistoryChecker with zero violations — all riding coalesced
// Batch frames between the hosts and in-process queues within them.
// The fixture lives in tcp_deployment.hpp; runtime_test drives the same
// fixture per engine (HA-POCC fallback, Cure* stabilization).
//
// Timing assertions are deliberately generous — this suite runs on loaded CI
// machines.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "common/rng.hpp"
#include "net/chaos.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "proto/codec.hpp"
#include "store/key_space.hpp"
#include "tcp_deployment.hpp"

namespace pocc::net {
namespace {

using testutil::Deployment;
using testutil::eventually;
using testutil::expect_clean_replay;
using testutil::Shape;

TEST(E2eTcp, ReadYourWritesSingleDc) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& s = cluster.connect(0);
  const auto put = s.put("e2e:ryw", "v1");
  ASSERT_TRUE(put.ok);
  EXPECT_GT(put.ut, 0);
  const auto get = s.get("e2e:ryw");
  ASSERT_TRUE(get.ok);
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "v1");

  // Overwrites stay monotonic under the same session.
  ASSERT_TRUE(s.put("e2e:ryw", "v2").ok);
  const auto get2 = s.get("e2e:ryw");
  ASSERT_TRUE(get2.ok);
  EXPECT_EQ(get2.value, "v2");
  expect_clean_replay(cluster);
}

TEST(E2eTcp, WcDepChainAcrossDcs) {
  // The paper's write-chain scenario (§II-A): Alice posts a photo (x) in
  // DC0; Bob in DC1 sees it and comments (y); Carol in DC2 who sees the
  // comment MUST see the photo — y's dependency vector forces the GET on x
  // to block until x's replication arrives.
  Deployment cluster(SystemKind::kPocc);
  TcpSession& alice = cluster.connect(0);
  TcpSession& bob = cluster.connect(1);
  TcpSession& carol = cluster.connect(2);

  ASSERT_TRUE(alice.put("e2e:photo", "selfie").ok);

  // Bob polls until the photo replicated into DC1, then comments.
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = bob.get("e2e:photo");
    return got.ok && got.found;
  })) << "photo never replicated to DC1";
  ASSERT_TRUE(bob.put("e2e:comment", "nice!").ok);

  // Carol polls for the comment; the instant she sees it, causality demands
  // the photo be visible too (the GET may block, but must not miss).
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = carol.get("e2e:comment");
    return got.ok && got.found;
  })) << "comment never replicated to DC2";
  const auto photo = carol.get("e2e:photo");
  ASSERT_TRUE(photo.ok);
  EXPECT_TRUE(photo.found) << "WC-DEP violated: comment seen, photo missing";
  EXPECT_EQ(photo.value, "selfie");
  expect_clean_replay(cluster);
}

TEST(E2eTcp, RoTxReturnsCompleteSnapshot) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& s = cluster.connect(0);
  ASSERT_TRUE(s.put("e2e:tx:a", "1").ok);
  ASSERT_TRUE(s.put("e2e:tx:b", "2").ok);
  const auto tx = s.ro_tx({"e2e:tx:a", "e2e:tx:b"});
  ASSERT_TRUE(tx.ok);
  ASSERT_EQ(tx.items.size(), 2u);
  for (const auto& item : tx.items) {
    EXPECT_TRUE(item.found) << store::key_name(item.key);
  }
  expect_clean_replay(cluster);
}

TEST(E2eTcp, RoTxSlicesRarelyParkUnderConcurrentPuts) {
  // 2 DCs x 2 partitions, one worker per DC. An RO-TX's snapshot is
  // TV = max(VV_coord, RDV) and each slice waits until its partition's VV
  // covers TV. The local entry is covered by the partition's clock, and a
  // pass that replicated a PUT ends with every sibling partition on the
  // worker promising that PUT's timestamp in the same frame — so a slice
  // no longer waits for its own partition's next PUT or heartbeat.
  Deployment cluster(SystemKind::kPocc, /*resilience=*/nullptr,
                     /*block_timeout_us=*/2'000'000, Shape{2, 1});
  const auto key_on = [&](PartitionId part, const std::string& prefix) {
    for (int i = 0;; ++i) {
      const std::string key = prefix + std::to_string(i);
      if (store::KeySpace::global().partition(
              store::intern_key(key), 2, PartitionScheme::kHash) == part) {
        return key;
      }
    }
  };
  const std::vector<std::string> keys = {key_on(0, "e2e:slice:"),
                                         key_on(1, "e2e:slice:")};

  std::atomic<bool> stop{false};
  std::atomic<int> puts{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (DcId dc = 0; dc < 2; ++dc) {
    TcpSession& w = cluster.connect(dc);
    writers.emplace_back([&, dc] {
      for (int i = 0; !stop.load(); ++i) {
        const std::string value = "w" + std::to_string(dc) + "." +
                                  std::to_string(i);
        if (w.put(keys[i % 2], value).ok) {
          ++puts;
        } else {
          ++failures;
        }
      }
    });
  }
  ASSERT_TRUE(eventually(10'000'000, [&] { return puts.load() >= 100; }));

  constexpr int kTxs = 400;
  int blocked = 0;
  TcpSession& reader = cluster.connect(0);
  for (int i = 0; i < kTxs; ++i) {
    const auto tx = reader.ro_tx(keys);
    ASSERT_TRUE(tx.ok);
    if (tx.blocked_us > 0) ++blocked;
  }
  stop = true;
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(blocked, kTxs * 5 / 100)
      << blocked << " of " << kTxs << " RO-TXs parked a slice";
  expect_clean_replay(cluster);
}

/// Closed-loop mixed workload on a deliberately tiny keyspace (maximum
/// cross-session conflict), all three DCs concurrently.
void run_load(Deployment& cluster, int sessions_per_dc, int ops_per_session) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (DcId dc = 0; dc < cluster.layout().topology.num_dcs; ++dc) {
    for (int i = 0; i < sessions_per_dc; ++i) {
      TcpSession& s = cluster.connect(dc);
      threads.emplace_back([&, dc, i, ops_per_session] {
        Rng rng((static_cast<std::uint64_t>(dc) << 8) | i);
        for (int op = 0; op < ops_per_session; ++op) {
          const std::string key =
              "e2e:load:" + std::to_string(rng.uniform(12));
          const std::uint64_t kind = rng.uniform(10);
          if (kind < 5) {
            if (!s.get(key).ok) ++failures;
          } else if (kind < 9) {
            const std::string value =
                "v" + std::to_string(dc) + "." + std::to_string(op);
            if (!s.put(key, value).ok) ++failures;
          } else {
            const std::string other =
                "e2e:load:" + std::to_string(rng.uniform(12));
            if (!s.ro_tx({key, other}).ok) ++failures;
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << "some operations timed out";
}

TEST(E2eTcp, ConcurrentLoadReplaysCleanlyPocc) {
  Deployment cluster(SystemKind::kPocc);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/120);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  // The multi-partition topology must actually exercise both transports:
  // intra-DC traffic (GC reports, sibling slices) as in-process pushes,
  // inter-DC replication as coalesced Batch frames.
  EXPECT_GT(cluster.local_deliveries(), 0u);
  EXPECT_GT(cluster.batched_messages(), 0u);
  EXPECT_EQ(cluster.transport_drops(), 0u)
      << "backpressure dropped replication batches";
  expect_clean_replay(cluster);
}

TEST(E2eTcp, ConcurrentLoadReplaysCleanlyCure) {
  Deployment cluster(SystemKind::kCure);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/80);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

TEST(E2eTcp, ChaosOnReplicationLinksReplaysClean) {
  // Delay, jitter, loss stalls and the seed's timed partition windows on
  // every inter-DC link: replication gets late and bursty but stays a
  // lossless FIFO, so the full history must still replay with zero causal
  // violations — the core claim of the chaos model (net/chaos.hpp).
  Deployment cluster(SystemKind::kPocc);
  ChaosProfile profile;
  profile.base_delay_us = 1'000;
  profile.jitter_mean_us = 500;
  profile.loss_p = 0.005;
  profile.rto_penalty_us = 20'000;
  profile.reorder_window_us = 1'000;
  cluster.arm_server_chaos(/*seed=*/7, profile);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/100);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

TEST(E2eTcp, ResilientSessionsAbsorbDuplicatedClientFrames) {
  // Dup-heavy chaos on the CLIENT links (the one place duplication is
  // legal): the per-client op_id idempotency cache must absorb every
  // duplicate — all ops succeed, the servers count dedups, and the replayed
  // history stays clean (no double-applied PUT).
  ClientResilience resilience;
  resilience.enabled = true;
  Deployment cluster(SystemKind::kPocc, &resilience);
  ChaosProfile profile;
  profile.base_delay_us = 200;
  profile.jitter_mean_us = 200;
  profile.dup_p = 0.05;
  cluster.arm_client_chaos(/*seed=*/11, profile);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/100);
  EXPECT_GT(cluster.deduped_requests(), 0u)
      << "dup_p=0.05 over 1200 ops should have produced duplicates";
  expect_clean_replay(cluster);
}

TEST(E2eTcp, SessionWithoutResilienceEndsOpOnOverloaded) {
  // A shed request did not run, so a session without retries has nothing
  // to wait for: the Overloaded reply must end the op at once (ok=false,
  // counted), not after the op's whole timeout.
  TcpTransport* server_ptr = nullptr;
  TcpTransport server(
      TcpTransport::Callbacks{
          [&](ConnId conn, proto::Frame f) {
            const auto* m = std::get_if<proto::Message>(&f);
            if (m == nullptr) return;  // the pool's ClientHello
            const auto* get = std::get_if<proto::GetReq>(m);
            ASSERT_NE(get, nullptr);
            std::vector<std::uint8_t> frame;
            proto::encode(proto::Message{proto::Overloaded{
                              get->client, /*retry_after_us=*/1'000,
                              get->op_id}},
                          frame);
            server_ptr->send(conn, std::move(frame));
          },
          nullptr,
          nullptr,
          nullptr,
          nullptr,
      },
      TcpTransport::Options{});
  server_ptr = &server;
  const std::uint16_t port = server.listen(0);
  server.start();

  ClusterLayout layout;
  layout.topology.num_dcs = 1;
  layout.topology.partitions_per_dc = 1;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  TcpClientPool pool(layout, 0, {NodeAddress{NodeId{0, 0}, "127.0.0.1", port}});
  pool.start();
  ASSERT_TRUE(pool.wait_connected(5'000'000));
  TcpSession& s = pool.connect(1);

  const auto t0 = std::chrono::steady_clock::now();
  const auto get = s.get("e2e:shed", /*timeout_us=*/3'000'000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(get.ok);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "the session waited out its timeout after an Overloaded reply";
  EXPECT_EQ(s.resilience_stats().overloaded, 1u);
  pool.stop();
  server.stop();
}

TEST(E2eTcp, SessionHoldsItsNextOpForRetryAfter) {
  // An Overloaded reply asks for retry_after_us of quiet. Without
  // resilience the op ends at once, and the session holds its NEXT op back
  // that long — through the blocking and the pipelined API alike, with the
  // next op's deadline running from the end of the wait.
  constexpr Duration kRetryAfterUs = 200'000;
  std::mutex mu;
  std::vector<std::chrono::steady_clock::time_point> arrivals;
  TcpTransport* server_ptr = nullptr;
  TcpTransport server(
      TcpTransport::Callbacks{
          [&](ConnId conn, proto::Frame f) {
            const auto* m = std::get_if<proto::Message>(&f);
            if (m == nullptr) return;  // the pool's ClientHello
            const auto* get = std::get_if<proto::GetReq>(m);
            ASSERT_NE(get, nullptr);
            std::size_t n = 0;
            {
              std::lock_guard lk(mu);
              arrivals.push_back(std::chrono::steady_clock::now());
              n = arrivals.size();
            }
            std::vector<std::uint8_t> frame;
            proto::encode(proto::Message{proto::Overloaded{
                              get->client, n == 1 ? kRetryAfterUs : 0,
                              get->op_id}},
                          frame);
            server_ptr->send(conn, std::move(frame));
          },
          nullptr,
          nullptr,
          nullptr,
          nullptr,
      },
      TcpTransport::Options{});
  server_ptr = &server;
  const std::uint16_t port = server.listen(0);
  server.start();

  ClusterLayout layout;
  layout.topology.num_dcs = 1;
  layout.topology.partitions_per_dc = 1;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  TcpClientPool pool(layout, 0, {NodeAddress{NodeId{0, 0}, "127.0.0.1", port}});
  pool.start();
  ASSERT_TRUE(pool.wait_connected(5'000'000));
  TcpSession& s = pool.connect(1);

  const auto first = s.get("e2e:hold", /*timeout_us=*/3'000'000);
  EXPECT_FALSE(first.ok);
  EXPECT_TRUE(first.overloaded);
  EXPECT_EQ(first.retry_after_us, kRetryAfterUs);

  // The next op's timeout is shorter than the wait: it still gets sent.
  ASSERT_TRUE(s.start_get("e2e:hold", /*timeout_us=*/100'000));
  while (!s.pump()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto second = s.finish_get();
  EXPECT_TRUE(second.overloaded);
  EXPECT_EQ(second.retry_after_us, 0);

  EXPECT_EQ(s.resilience_stats().overloaded, 2u);
  pool.stop();
  server.stop();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0],
            std::chrono::microseconds(kRetryAfterUs))
      << "the next op was sent before retry_after_us had passed";
}

TEST(E2eTcp, PipelinedSessionsReplayCleanly) {
  // The pipelined client path: one driver thread per DC interleaves many
  // sessions through the non-blocking start_*/pump/finish_* API, so each
  // pool connection carries several in-flight ops at once (what
  // pocc_loadgen --pipeline does). Every session stays serial, so the full
  // history must still replay with zero causal violations.
  Deployment cluster(SystemKind::kPocc);
  constexpr int kSessionsPerDc = 8;
  constexpr int kOpsPerSession = 60;
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (DcId dc = 0; dc < cluster.layout().topology.num_dcs; ++dc) {
    std::vector<TcpSession*> sessions;
    for (int i = 0; i < kSessionsPerDc; ++i) {
      sessions.push_back(&cluster.connect(dc));
    }
    drivers.emplace_back([&, dc, sessions] {
      struct Slot {
        TcpSession* s = nullptr;
        Rng rng{0};
        int started = 0;
        int completed = 0;
        std::uint64_t kind = 0;
      };
      std::vector<Slot> slots;
      for (int i = 0; i < kSessionsPerDc; ++i) {
        Slot sl;
        sl.s = sessions[i];
        sl.rng = Rng((static_cast<std::uint64_t>(dc) << 8) | i);
        slots.push_back(sl);
      }
      for (;;) {
        bool progress = false;
        bool all_done = true;
        for (Slot& sl : slots) {
          if (!sl.s->op_pending() && sl.started < kOpsPerSession) {
            const std::string key =
                "e2e:pipe:" + std::to_string(sl.rng.uniform(12));
            sl.kind = sl.rng.uniform(10);
            bool ok = false;
            if (sl.kind < 5) {
              ok = sl.s->start_get(key);
            } else if (sl.kind < 9) {
              ok = sl.s->start_put(
                  key, "v" + std::to_string(dc) + "." +
                           std::to_string(sl.started));
            } else {
              const std::string other =
                  "e2e:pipe:" + std::to_string(sl.rng.uniform(12));
              ok = sl.s->start_ro_tx({key, other});
            }
            EXPECT_TRUE(ok);
            ++sl.started;
            progress = true;
          }
          if (sl.s->op_pending() && sl.s->pump()) {
            bool ok = false;
            if (sl.kind < 5) {
              ok = sl.s->finish_get().ok;
            } else if (sl.kind < 9) {
              ok = sl.s->finish_put().ok;
            } else {
              ok = sl.s->finish_tx().ok;
            }
            if (!ok) ++failures;
            ++sl.completed;
            progress = true;
          }
          all_done = all_done && sl.completed >= kOpsPerSession;
        }
        if (all_done) break;
        if (!progress) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0) << "pipelined operations timed out";
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

TEST(E2eTcp, CrossDcVisibilityEventuallyConverges) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& writer = cluster.connect(0);
  ASSERT_TRUE(writer.put("e2e:geo", "hello").ok);
  for (DcId dc = 1; dc < 3; ++dc) {
    TcpSession& reader = cluster.connect(dc);
    EXPECT_TRUE(eventually(10'000'000, [&] {
      const auto got = reader.get("e2e:geo");
      return got.ok && got.found && got.value == "hello";
    })) << "value never visible in DC " << dc;
  }
  expect_clean_replay(cluster);
}

TEST(E2eTcp, CrossDcVisibilityWithinAPass) {
  // POCC makes a remote update readable the moment it arrives, so a reader
  // in another DC waits on the replication path alone. A lone PUT on a
  // quiet link leaves with the loop pass that staged it — no timer holds it
  // back — so the median PUT-reply-to-visible time is a couple of loopback
  // round trips. The bound scales with the reader's own GET round trip,
  // timed in the same run, so a slow build or a loaded machine moves both;
  // a millisecond flush timer still breaks it.
  Deployment cluster(SystemKind::kPocc);
  TcpSession& writer = cluster.connect(0);
  TcpSession& reader = cluster.connect(1);
  using Clock = std::chrono::steady_clock;
  const auto us_since = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 t)
        .count();
  };
  std::vector<std::int64_t> lag_us;
  std::vector<std::int64_t> get_us;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "e2e:vis:" + std::to_string(i);
    ASSERT_TRUE(writer.put(key, "v").ok);
    const auto t0 = Clock::now();
    bool found = false;
    while (!found && Clock::now() - t0 < std::chrono::seconds(5)) {
      const auto sent = Clock::now();
      const auto got = reader.get(key);
      get_us.push_back(us_since(sent));
      ASSERT_TRUE(got.ok);
      found = got.found;
    }
    ASSERT_TRUE(found) << key << " never became visible in DC 1";
    lag_us.push_back(us_since(t0));
  }
  const auto median = [](std::vector<std::int64_t>& v) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
  };
  const std::int64_t lag = median(lag_us);
  const std::int64_t rtt = median(get_us);
  EXPECT_LT(lag, 4 * rtt + 200)
      << "median cross-DC visibility " << lag << " us against a median GET "
      << "round trip of " << rtt
      << " us: replication waits on something besides the wire";
  expect_clean_replay(cluster);
}

/// Sends `frame` on a fresh raw client connection to 127.0.0.1:`port` and
/// returns whether the server then closed the connection.
bool server_closes_after(std::uint16_t port,
                         const std::vector<std::uint8_t>& frame) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool closed = false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    pollfd pfd{fd, POLLIN, 0};
    char byte = 0;
    closed = ::poll(&pfd, 1, 10'000) == 1 && ::recv(fd, &byte, 1, 0) <= 0;
  }
  ::close(fd);
  return closed;
}

TEST(E2eTcp, OversizedClientRequestsAreRefused) {
  // Each request decodes as a frame, but serving it would make the server
  // build a frame over kMaxFrameBytes: the Replicate of a near-16 MiB value,
  // the reply to a 400k-key RO-TX. The decoder refuses both, closing the
  // connection as for any corrupt frame, and the server keeps serving.
  Deployment cluster(SystemKind::kPocc);
  const std::uint16_t port = cluster.layout().processes[0].port;

  proto::PutReq put;
  put.client = testutil::g_next_client.fetch_add(1);
  put.key = store::intern_key("e2e:big");
  put.value.assign(proto::kMaxFrameBytes - 64, 'v');
  put.dv = VersionVector(3);
  std::vector<std::uint8_t> frame;
  proto::encode(proto::Message{std::move(put)}, frame);
  EXPECT_TRUE(server_closes_after(port, frame));

  proto::RoTxReq tx;
  tx.client = testutil::g_next_client.fetch_add(1);
  tx.keys.assign(400'000, store::intern_key("e2e:wide"));
  tx.rdv = VersionVector(3);
  frame.clear();
  proto::encode(proto::Message{std::move(tx)}, frame);
  EXPECT_TRUE(server_closes_after(port, frame));

  TcpSession& s = cluster.connect(0);
  ASSERT_TRUE(s.put("e2e:after-oversized", "ok").ok);
  const auto got = s.get("e2e:after-oversized");
  ASSERT_TRUE(got.ok);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.value, "ok");
}

}  // namespace
}  // namespace pocc::net
