// TcpTransport: framing across real sockets, greeting-before-traffic,
// reconnect with FIFO-preserving buffering, and stats accounting.
#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/rt_node.hpp"
#include "store/key_space.hpp"

namespace pocc::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> heartbeat_frame(DcId dc, Timestamp ts) {
  std::vector<std::uint8_t> buf;
  proto::encode(proto::Message{proto::Heartbeat{dc, ts}}, buf);
  return buf;
}

/// Collects decoded frames thread-safely.
struct FrameSink {
  std::mutex mu;
  std::vector<proto::Frame> frames;
  std::atomic<int> connects{0};
  std::atomic<int> disconnects{0};

  TcpTransport::Callbacks callbacks() {
    return TcpTransport::Callbacks{
        [this](ConnId, proto::Frame f) {
          std::lock_guard lk(mu);
          frames.push_back(std::move(f));
        },
        [this](ConnId) { ++connects; },
        [this](ConnId) { ++disconnects; },
        nullptr,
        nullptr,
    };
  }

  std::size_t size() {
    std::lock_guard lk(mu);
    return frames.size();
  }

  std::optional<proto::Message> message_at(std::size_t i) {
    std::lock_guard lk(mu);
    if (i >= frames.size()) return std::nullopt;
    if (auto* m = std::get_if<proto::Message>(&frames[i])) return *m;
    return std::nullopt;
  }

  bool wait_for_frames(std::size_t n, Duration timeout_us = 5'000'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    while (std::chrono::steady_clock::now() < deadline) {
      if (size() >= n) return true;
      std::this_thread::sleep_for(1ms);
    }
    return size() >= n;
  }
};

TEST(TcpTransport, FramesCrossASocketInOrder) {
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  ASSERT_GT(port, 0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(1, 1'000 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(50));
  for (int i = 0; i < 50; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    const auto& hb = std::get<proto::Heartbeat>(*m);
    EXPECT_EQ(hb.ts, 1'000 + i) << "FIFO order violated at " << i;
  }
  EXPECT_EQ(server.stats().frames_in, 50u);
  EXPECT_EQ(client.stats().frames_out, 50u);
  client.stop();
  server.stop();
}

TEST(TcpTransport, GreetingPrecedesBufferedTraffic) {
  // Frames sent while the link is down must arrive AFTER the greeting once
  // the link comes up — peers must always know who is talking first.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  std::vector<std::uint8_t> hello;
  proto::encode(proto::NodeHello{NodeId{1, 2}}, hello);
  client.set_greeting(conn, hello);
  client.start();
  // The server is not started yet: sends buffer while dialing fails.
  ASSERT_TRUE(client.send(conn, heartbeat_frame(7, 42)));
  std::this_thread::sleep_for(50ms);
  server.start();

  ASSERT_TRUE(server_sink.wait_for_frames(2));
  const auto first = [&] {
    std::lock_guard lk(server_sink.mu);
    return server_sink.frames[0];
  }();
  ASSERT_TRUE(std::holds_alternative<proto::NodeHello>(first));
  EXPECT_EQ(std::get<proto::NodeHello>(first).node, (NodeId{1, 2}));
  const auto second = server_sink.message_at(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*second).ts, 42);
  client.stop();
  server.stop();
}

TEST(TcpTransport, ReconnectsAndPreservesPendingFrames) {
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  // First server instance.
  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  ASSERT_TRUE(sink1.wait_for_frames(1));

  // Kill the server; the OS releases the port only after close, so rebind on
  // the same port for the second instance.
  server.reset();
  std::this_thread::sleep_for(30ms);
  // Frames sent while the peer is down are buffered by the outbound link.
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 2)));
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 3)));

  FrameSink sink2;
  auto server2 =
      std::make_unique<TcpTransport>(sink2.callbacks(),
                                     TcpTransport::Options{});
  // SO_REUSEADDR makes the immediate rebind reliable.
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  ASSERT_TRUE(sink2.wait_for_frames(2, 10'000'000))
      << "buffered frames were not delivered after reconnect";
  const auto m0 = sink2.message_at(0);
  const auto m1 = sink2.message_at(1);
  ASSERT_TRUE(m0.has_value() && m1.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*m0).ts, 2);
  EXPECT_EQ(std::get<proto::Heartbeat>(*m1).ts, 3);
  EXPECT_GE(client.stats().reconnects, 1u);
  client.stop();
  server2.reset();
}

TEST(TcpTransport, ReconnectDuringHandshakeReplaysGreetingFirst) {
  // The peer dies right after consuming the greeting. On the replacement
  // socket the greeting must be replayed BEFORE any buffered payload — a
  // restarted peer that never saw it could not attribute the traffic.
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  std::vector<std::uint8_t> hello;
  proto::encode(proto::NodeHello{NodeId{2, 1}}, hello);
  client.set_greeting(conn, hello);
  client.start();
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  // First server saw greeting + one payload, then dies mid-handshake.
  ASSERT_TRUE(sink1.wait_for_frames(2));
  server.reset();
  std::this_thread::sleep_for(30ms);
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 2)));
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 3)));

  FrameSink sink2;
  auto server2 = std::make_unique<TcpTransport>(sink2.callbacks(),
                                                TcpTransport::Options{});
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  ASSERT_TRUE(sink2.wait_for_frames(3, 10'000'000))
      << "greeting + buffered frames not delivered after reconnect";
  const auto first = [&] {
    std::lock_guard lk(sink2.mu);
    return sink2.frames[0];
  }();
  ASSERT_TRUE(std::holds_alternative<proto::NodeHello>(first))
      << "replacement socket must open with the greeting";
  EXPECT_EQ(std::get<proto::NodeHello>(first).node, (NodeId{2, 1}));
  const auto m1 = sink2.message_at(1);
  const auto m2 = sink2.message_at(2);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*m1).ts, 2);
  EXPECT_EQ(std::get<proto::Heartbeat>(*m2).ts, 3);
  client.stop();
  server2.reset();
}

TEST(TcpTransport, DownBufferCapDropsWhileDisconnected) {
  // While a link has no socket, buffering is bounded by the tighter
  // down-buffer cap: overflow is dropped and counted, never queued forever.
  FrameSink sink;
  TcpTransport::Options opt;
  opt.max_down_buffer_bytes = 64;  // one heartbeat frame fits, ten do not
  TcpTransport client(sink.callbacks(), opt);
  const ConnId conn = client.connect_peer("127.0.0.1", 1);  // never answers
  client.start();
  bool rejected = false;
  for (int i = 0; i < 10; ++i) {
    rejected = !client.send(conn, heartbeat_frame(0, i)) || rejected;
  }
  EXPECT_TRUE(rejected);
  EXPECT_GT(client.stats().down_buffer_drops, 0u);
  client.stop();
}

TEST(TcpTransport, ChaosLinkDuplicatesAndDelaysAreAccounted) {
  // A dup_p=1 chaos link on the client connection: every frame transmits
  // twice; FIFO order of the originals is preserved and the injection is
  // visible in the transport stats.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();
  ChaosProfile p;
  p.base_delay_us = 1'000;
  p.dup_p = 1.0;
  client.set_chaos(conn, std::make_shared<ChaosLink>(5, p));

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 100 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(10))
      << "duplicated frames never arrived";
  EXPECT_EQ(client.stats().chaos_duplicates, 5u);
  EXPECT_EQ(client.stats().chaos_delayed, 5u);
  // Dedup the doubled stream: the surviving order must still be FIFO.
  std::vector<Timestamp> seq;
  {
    std::lock_guard lk(server_sink.mu);
    for (const proto::Frame& f : server_sink.frames) {
      if (const auto* m = std::get_if<proto::Message>(&f)) {
        const auto& hb = std::get<proto::Heartbeat>(*m);
        if (seq.empty() || seq.back() != hb.ts) seq.push_back(hb.ts);
      }
    }
  }
  ASSERT_EQ(seq.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seq[i], 100 + i);
  client.stop();
  server.stop();
}

TEST(TcpTransport, BackpressureCapsOutbox) {
  FrameSink sink;
  TcpTransport::Options tight;
  tight.max_outbox_bytes = 256;  // tiny cap
  TcpTransport client(sink.callbacks(), tight);
  // Dial a port that never answers: everything queues against the cap.
  const ConnId conn = client.connect_peer("127.0.0.1", 1);
  client.start();
  bool rejected = false;
  for (int i = 0; i < 100 && !rejected; ++i) {
    rejected = !client.send(conn, heartbeat_frame(0, i));
  }
  EXPECT_TRUE(rejected) << "overflow must reject sends, not grow unbounded";
  EXPECT_GT(client.stats().send_overflows, 0u);
  client.stop();
}

TEST(TcpTransport, SendToUnknownConnectionFails) {
  FrameSink sink;
  TcpTransport t(sink.callbacks(), TcpTransport::Options{});
  EXPECT_FALSE(t.send(12'345, heartbeat_frame(0, 0)));
}

TEST(TcpTransport, LoopThreadSendsDoNotWriteTheWakePipe) {
  // A loop that queues work for itself is already awake: a frame sent from
  // its own pass hook must leave without a wake-pipe write. A foreign
  // thread's send onto an idle connection writes the socket itself, so it
  // wakes nobody either; a foreign wake still has to write the pipe to
  // interrupt a wait.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport* client_ptr = nullptr;
  ConnId conn = kInvalidConn;
  std::atomic<bool> send_from_pass{false};
  std::atomic<bool> sent_from_pass{false};
  auto callbacks = client_sink.callbacks();
  callbacks.on_loop_pass = [&](std::uint32_t) -> Timestamp {
    if (send_from_pass.exchange(false)) {
      sent_from_pass = client_ptr->send(conn, heartbeat_frame(0, 1));
    }
    return rt::steady_now_us() + 1'000;  // re-check the flag every ~ms
  };
  TcpTransport client(std::move(callbacks), TcpTransport::Options{});
  client_ptr = &client;
  conn = client.connect_peer("127.0.0.1", port);
  client.start();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!client.connected(conn) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(client.connected(conn));

  const std::uint64_t before = client.stats().wake_writes;
  send_from_pass = true;
  ASSERT_TRUE(server_sink.wait_for_frames(1));
  EXPECT_TRUE(sent_from_pass.load());
  EXPECT_EQ(client.stats().wake_writes, before)
      << "a send from the loop's own thread wrote its wake pipe";

  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 2)));
  ASSERT_TRUE(server_sink.wait_for_frames(2));
  EXPECT_EQ(client.stats().wake_writes, before)
      << "a foreign send the socket took whole woke the loop";

  client.wake_loop(0);
  EXPECT_EQ(client.stats().wake_writes, before + 1)
      << "a wake from a foreign thread must write the pipe";
  const auto seq_first = server_sink.message_at(0);
  const auto seq_second = server_sink.message_at(1);
  ASSERT_TRUE(seq_first.has_value() && seq_second.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*seq_first).ts, 1);
  EXPECT_EQ(std::get<proto::Heartbeat>(*seq_second).ts, 2);
  client.stop();
  server.stop();
}

TEST(TcpTransport, SignalStormDoesNotTearConnections) {
  // The EINTR regression test: pepper every loop thread with SIGUSR1 (no
  // SA_RESTART, so recv/send/epoll_wait really return EINTR) during a
  // checked transfer. Interrupted syscalls must be retried, not treated as
  // socket errors — the connection survives with FIFO intact and ZERO
  // reconnects.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  TcpTransport server(server_sink.callbacks(), sopt);
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  std::atomic<bool> storm{true};
  std::vector<std::thread::native_handle_type> victims;
  for (const auto h : server.loop_thread_handles()) victims.push_back(h);
  for (const auto h : client.loop_thread_handles()) victims.push_back(h);
  std::thread pepper([&] {
    while (storm.load()) {
      for (const auto h : victims) {
        pthread_kill(h, SIGUSR1);
      }
      std::this_thread::sleep_for(200us);
    }
  });

  constexpr int kFrames = 400;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(1, 1'000 + i)));
    if (i % 50 == 0) std::this_thread::sleep_for(1ms);  // overlap the storm
  }
  const bool all = server_sink.wait_for_frames(kFrames, 20'000'000);
  storm.store(false);
  pepper.join();
  ASSERT_TRUE(all) << "frames lost under the signal storm";

  for (int i = 0; i < kFrames; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<proto::Heartbeat>(*m).ts, 1'000 + i)
        << "FIFO order violated at " << i;
  }
  EXPECT_EQ(client.stats().reconnects, 0u)
      << "a signal tore a healthy connection down";
  EXPECT_EQ(server_sink.disconnects.load(), 0);
  EXPECT_EQ(client_sink.disconnects.load(), 0);
  client.stop();
  server.stop();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST(TcpTransport, ShardedLoopsPreserveFifoPerStream) {
  // Several clients against a 4-shard server: the SO_REUSEPORT listeners
  // spread the accepts, and every stream keeps its own FIFO regardless of
  // which shard owns it.
  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 4;
  TcpTransport server(server_sink.callbacks(), sopt);
  ASSERT_EQ(server.num_loops(), 4u);
  const std::uint16_t port = server.listen(0);
  server.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 100;
  std::vector<std::unique_ptr<TcpTransport>> clients;
  std::vector<FrameSink> sinks(kClients);
  std::vector<ConnId> conns;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TcpTransport>(
        sinks[c].callbacks(), TcpTransport::Options{}));
    conns.push_back(clients.back()->connect_peer("127.0.0.1", port));
    clients.back()->start();
  }
  // The heartbeat's dc field names the stream, ts carries the sequence.
  for (int i = 0; i < kPerClient; ++i) {
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(clients[c]->send(
          conns[c], heartbeat_frame(static_cast<DcId>(c), 1 + i)));
    }
  }
  ASSERT_TRUE(server_sink.wait_for_frames(kClients * kPerClient, 20'000'000));

  std::unordered_map<DcId, Timestamp> last_ts;
  {
    std::lock_guard lk(server_sink.mu);
    for (const proto::Frame& f : server_sink.frames) {
      const auto* m = std::get_if<proto::Message>(&f);
      ASSERT_NE(m, nullptr);
      const auto& hb = std::get<proto::Heartbeat>(*m);
      EXPECT_EQ(hb.ts, last_ts[hb.src_dc] + 1)
          << "per-stream FIFO violated on stream " << hb.src_dc;
      last_ts[hb.src_dc] = hb.ts;
    }
  }
  EXPECT_EQ(last_ts.size(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(server.stats().accepts, static_cast<std::uint64_t>(kClients));
  for (auto& c : clients) c->stop();
  server.stop();
}

TEST(TcpTransport, PlaceHomesAcceptedConnectionsBeforeTheyAreAnnounced) {
  // Placement: an accepted connection stays silent until its first frame
  // names its shard (as a host's ClientHello does). Eight clients each send
  // 50 frames back to back to a 2-shard server whose place() picks shard 1:
  // every frame must arrive on shard 1's thread, in order, under the id
  // on_connected announced for it, and a send to that id must reach the
  // client. Whichever shard the kernel accepted a socket on, no connection
  // is announced twice or lost.
  constexpr int kClients = 8;
  constexpr int kFrames = 50;
  std::mutex mu;
  std::vector<ConnId> announced;
  std::unordered_map<DcId, std::vector<std::pair<ConnId, Timestamp>>> streams;
  std::vector<pthread_t> frame_threads;
  int unannounced_frames = 0;
  std::atomic<int> disconnects{0};

  TcpTransport::Callbacks cb{
      [&](ConnId conn, proto::Frame f) {
        const auto* m = std::get_if<proto::Message>(&f);
        ASSERT_NE(m, nullptr);
        const auto& hb = std::get<proto::Heartbeat>(*m);
        std::lock_guard lk(mu);
        if (std::find(announced.begin(), announced.end(), conn) ==
            announced.end()) {
          ++unannounced_frames;
        }
        streams[hb.src_dc].emplace_back(conn, hb.ts);
        frame_threads.push_back(pthread_self());
      },
      [&](ConnId conn) {
        std::lock_guard lk(mu);
        announced.push_back(conn);
      },
      [&](ConnId) { ++disconnects; },
      nullptr,
      [](const proto::Frame&) { return 1; },
  };
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  TcpTransport server(std::move(cb), sopt);
  const std::uint16_t port = server.listen(0);
  server.start();
  const auto loops = server.loop_thread_handles();
  ASSERT_EQ(loops.size(), 2u);

  std::vector<std::unique_ptr<FrameSink>> sinks;
  std::vector<std::unique_ptr<TcpTransport>> clients;
  std::vector<ConnId> links;
  for (int i = 0; i < kClients; ++i) {
    sinks.push_back(std::make_unique<FrameSink>());
    clients.push_back(std::make_unique<TcpTransport>(sinks.back()->callbacks(),
                                                     TcpTransport::Options{}));
    links.push_back(clients.back()->connect_peer("127.0.0.1", port));
    clients.back()->start();
  }
  for (int i = 0; i < kClients; ++i) {
    for (int ts = 1; ts <= kFrames; ++ts) {
      ASSERT_TRUE(clients[i]->send(
          links[i], heartbeat_frame(static_cast<DcId>(i), ts)));
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lk(mu);
      if (frame_threads.size() >= static_cast<std::size_t>(kClients * kFrames)) {
        break;
      }
    }
    std::this_thread::sleep_for(1ms);
  }

  std::vector<ConnId> placed;
  {
    std::lock_guard lk(mu);
    ASSERT_EQ(frame_threads.size(),
              static_cast<std::size_t>(kClients * kFrames));
    EXPECT_EQ(unannounced_frames, 0) << "a frame beat its on_connected";
    ASSERT_EQ(announced.size(), static_cast<std::size_t>(kClients))
        << "each connection is announced exactly once";
    for (const pthread_t t : frame_threads) {
      EXPECT_TRUE(pthread_equal(t, loops[1])) << "frame delivered off shard 1";
    }
    for (int i = 0; i < kClients; ++i) {
      const auto& stream = streams[static_cast<DcId>(i)];
      ASSERT_EQ(stream.size(), static_cast<std::size_t>(kFrames));
      const ConnId id = stream.front().first;
      EXPECT_EQ(TcpTransport::loop_of(id), 1u);
      EXPECT_NE(std::find(announced.begin(), announced.end(), id),
                announced.end());
      for (int k = 0; k < kFrames; ++k) {
        EXPECT_EQ(stream[k].first, id) << "client " << i << " changed id";
        EXPECT_EQ(stream[k].second, k + 1) << "FIFO broke for client " << i;
      }
      placed.push_back(id);
    }
  }
  EXPECT_EQ(disconnects.load(), 0) << "placement must not announce a loss";
  // Sockets the kernel accepted on shard 0 moved; the rest stayed.
  EXPECT_LE(server.stats().migrations, static_cast<std::uint64_t>(kClients));

  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(server.send(placed[i], heartbeat_frame(9, 100 + i)));
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(sinks[i]->wait_for_frames(1)) << "reply lost for client " << i;
    EXPECT_EQ(std::get<proto::Heartbeat>(*sinks[i]->message_at(0)).ts, 100 + i);
  }
  for (auto& c : clients) c->stop();
  server.stop();
}

// ------------------------------------------------------------ LinkBatcher --

/// Extracts the heartbeat timestamps of every frame in arrival order,
/// unwrapping batches — the cross-frame FIFO order the protocol relies on.
std::vector<Timestamp> heartbeat_sequence(FrameSink& sink) {
  std::vector<Timestamp> seq;
  std::lock_guard lk(sink.mu);
  for (const proto::Frame& f : sink.frames) {
    if (const auto* m = std::get_if<proto::Message>(&f)) {
      if (const auto* hb = std::get_if<proto::Heartbeat>(m)) {
        seq.push_back(hb->ts);
      }
    } else if (const auto* batch = std::get_if<proto::BatchFrame>(&f)) {
      for (const auto& item : batch->items) {
        if (const auto* hb = std::get_if<proto::Heartbeat>(&item.msg)) {
          seq.push_back(hb->ts);
        }
      }
    }
  }
  return seq;
}

std::size_t batch_frames_seen(FrameSink& sink) {
  std::lock_guard lk(sink.mu);
  std::size_t n = 0;
  for (const proto::Frame& f : sink.frames) {
    n += std::holds_alternative<proto::BatchFrame>(f) ? 1 : 0;
  }
  return n;
}

TEST(TcpTransport, BatcherFlushesOnMessageThreshold) {
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  BatchPolicy policy;
  policy.max_messages = 8;
  policy.max_bytes = 1u << 20;
  LinkBatcher batcher(client, conn, policy);
  const NodeId from{0, 0};
  const NodeId to{1, 0};
  for (int i = 0; i < 24; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, 100 + i}});
  }
  // 24 messages at a threshold of 8 = exactly 3 inline flushes.
  ASSERT_TRUE(server_sink.wait_for_frames(3));
  EXPECT_EQ(batch_frames_seen(server_sink), 3u);
  const auto seq = heartbeat_sequence(server_sink);
  ASSERT_EQ(seq.size(), 24u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(seq[i], 100 + i);
  const BatchStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.messages, 24u);
  EXPECT_GT(stats.protocol_bytes, 0u);
  EXPECT_GT(stats.overhead_bytes, 0u);
  client.stop();
  server.stop();
}

TEST(TcpTransport, BatchFlushPreservesFifoAcrossReconnects) {
  // The per-link FIFO the protocol assumes (§II-C) must hold through a peer
  // restart even when traffic is a mix of threshold flushes, pass-end
  // flushes and frames staged while the link is down.
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  BatchPolicy policy;
  policy.max_messages = 4;
  LinkBatcher batcher(client, conn, policy);
  const NodeId from{0, 0};
  const NodeId to{1, 0};
  Timestamp ts = 0;
  for (int i = 0; i < 8; ++i) {  // two full batches before the crash
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }
  ASSERT_TRUE(sink1.wait_for_frames(2));

  // Kill the server; stage more traffic while the link is down — one partial
  // batch flushed manually (as a host's pass end would) plus two threshold
  // flushes.
  server.reset();
  std::this_thread::sleep_for(30ms);
  batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  batcher.flush();
  for (int i = 0; i < 8; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }

  FrameSink sink2;
  auto server2 = std::make_unique<TcpTransport>(sink2.callbacks(),
                                                TcpTransport::Options{});
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  // One more batch after the peer is back.
  for (int i = 0; i < 4; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }
  ASSERT_TRUE(sink2.wait_for_frames(4, 10'000'000))
      << "buffered batches were not delivered after reconnect";
  const auto seq = heartbeat_sequence(sink2);
  ASSERT_EQ(seq.size(), 13u);  // 1 + 8 + 4 staged since the crash
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], static_cast<Timestamp>(9 + i))
        << "FIFO order violated at " << i;
  }
  EXPECT_GE(client.stats().reconnects, 1u);
  client.stop();
  server2.reset();
}

TEST(TcpTransport, RefusedBatchIsCountedOnceAndLaterBatchesKeepOrder) {
  // The transport outbox is the only buffer behind a link: a batch it
  // refuses is dropped and counted once, and later flushes with nothing
  // staged do not offer it again. Batches flushed once the peer is back
  // leave in order.
  std::uint16_t port = 0;
  {
    FrameSink probe;
    TcpTransport t(probe.callbacks(), TcpTransport::Options{});
    port = t.listen(0);  // a free port; nothing listens on it until below
  }
  FrameSink client_sink;
  TcpTransport::Options opt;
  opt.max_down_buffer_bytes = 0;  // the down link refuses every batch
  opt.reconnect_backoff_max_us = 20'000;
  TcpTransport client(client_sink.callbacks(), opt);
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  LinkBatcher batcher(client, conn, BatchPolicy{});
  const NodeId from{0, 0};
  const NodeId to{1, 0};
  batcher.add(from, to, proto::Message{proto::Heartbeat{0, 1}});
  EXPECT_TRUE(batcher.staged());
  batcher.flush();  // refused by the down link: dropped
  EXPECT_FALSE(batcher.staged());
  for (int i = 0; i < 5; ++i) batcher.flush();  // what later passes do
  EXPECT_EQ(client.stats().down_buffer_drops, 1u);
  EXPECT_EQ(client.stats().send_overflows, 0u);
  EXPECT_EQ(client.queued_bytes(conn), 0u);
  EXPECT_FALSE(client.backlogged(conn));

  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  ASSERT_EQ(server.listen(port), port);
  server.start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!client.connected(conn) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(client.connected(conn)) << "the link never came back";
  for (Timestamp ts = 2; ts <= 4; ++ts) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ts}});
    batcher.flush();
  }
  ASSERT_TRUE(server_sink.wait_for_frames(3));
  EXPECT_EQ(heartbeat_sequence(server_sink), (std::vector<Timestamp>{2, 3, 4}));
  EXPECT_EQ(batcher.stats().batches, 4u);
  EXPECT_EQ(client.stats().down_buffer_drops, 1u);
  client.stop();
  server.stop();
}

TEST(TcpTransport, LinkThatDropsAtTheShedPointStillTakesTheNextBatch) {
  // A peer that accepts but never reads fills the up link's queue until it
  // is backlogged, the point where a host sheds client work. That point is
  // half the down cap whether the link is up or down, so when the link then
  // drops, its reconnect buffer still takes what was admitted before the
  // shed took effect.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int window = 4096;  // a small receive window: the queue builds early
  ::setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  FrameSink sink;
  TcpTransport::Options opt;
  opt.max_down_buffer_bytes = 1u << 20;  // shed point: 512 KiB
  TcpTransport client(sink.callbacks(), opt);
  const ConnId conn = client.connect_peer("127.0.0.1", ntohs(addr.sin_port));
  client.start();
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  ::close(listener);  // once the link drops, it stays down
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!client.connected(conn) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(client.connected(conn));

  // The peer never decodes: any bytes fill the queue.
  const std::vector<std::uint8_t> filler(64u << 10, 0);
  std::size_t sent = 0;
  while (!client.backlogged(conn) && sent < opt.max_outbox_bytes) {
    ASSERT_TRUE(client.send(conn, filler));
    sent += filler.size();
  }
  ASSERT_TRUE(client.backlogged(conn));
  EXPECT_LT(client.queued_bytes(conn), opt.max_down_buffer_bytes)
      << "the up link sheds only past the down cap";

  const linger reset{1, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(peer);  // RST: the link drops with its queue intact
  while (client.connected(conn) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_FALSE(client.connected(conn)) << "the reset never took the link down";
  EXPECT_TRUE(client.backlogged(conn));

  LinkBatcher batcher(client, conn, BatchPolicy{});
  batcher.add(NodeId{0, 0}, NodeId{1, 0},
              proto::Message{proto::Heartbeat{0, 1}});
  const std::size_t before = client.queued_bytes(conn);
  batcher.flush();
  EXPECT_GT(client.queued_bytes(conn), before);
  EXPECT_EQ(client.stats().down_buffer_drops, 0u);
  EXPECT_EQ(client.stats().send_overflows, 0u);
  client.stop();
}

}  // namespace
}  // namespace pocc::net
