// Crash-recovery battery (ctest label `recovery`), three layers deep:
//
//  * Engine level: a PoccServer journaling to a real on-disk PartitionWal is
//    killed at randomized points mid-workload (checkpoints landing
//    mid-stream included) and rebuilt from snapshot + log; its final state
//    digest must be bit-identical to a never-crashed same-seed run.
//  * Sim level: the cluster-fuzz harness — fail-stop crash plans rebuild
//    the engine from its snapshot image (the poccd checkpoint codec) under
//    the causal checker, and seed replay stays bit-identical.
//  * Deployment level: a TcpNodeHost is crash_stopped (kill -9 equivalent:
//    unsynced WAL tail and staged frames die), restarted on the same
//    data_dir, replays its WAL, rebuilds the missed replication suffix from
//    the peer DC via the recovery handshake, and serves both old and missed
//    writes. scripts/e2e_local_cluster.sh covers the same flow across real
//    process boundaries. While a DC is down its peer sheds client PUTs once
//    the replication link's reconnect buffer is half full, before the
//    transport drops anything. A request held by the recovery gate is
//    answered on the client's current connection, even after a reconnect.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fuzz_runner.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "pocc/pocc_server.hpp"
#include "proto/codec.hpp"
#include "store/key_space.hpp"
#include "test_util.hpp"
#include "wal/partition_wal.hpp"
#include "wal/wal_format.hpp"

namespace pocc {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("pocc_recovery_test_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ===================================================== engine level =====

/// MockContext with the WAL durability seam the runtime host provides.
class WalContext : public testutil::MockContext {
 public:
  wal::PartitionWal* wal = nullptr;
  server::DurabilityLog* durability() override { return wal; }
};

/// Digest of everything recovery must preserve: the VV and the full
/// multiversion store (same fields SimCluster::state_digest mixes).
std::uint64_t engine_digest(const server::ReplicaBase& e) {
  std::uint64_t h = 0x517cc1b727220a95ULL;
  auto mix = [&h](std::uint64_t x) { h = splitmix64(h ^ x); };
  auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
  };
  const VersionVector& vv = e.version_vector();
  for (std::uint32_t i = 0; i < vv.size(); ++i) {
    mix(static_cast<std::uint64_t>(vv[i]));
  }
  for (const auto& [key, chain] : e.partition_store().chains()) {
    mix_str(store::key_name(key));
    for (const store::Version& v : chain.versions()) {
      mix(static_cast<std::uint64_t>(v.ut));
      mix(v.sr);
      mix_str(v.value);
      for (std::uint32_t i = 0; i < v.dv.size(); ++i) {
        mix(static_cast<std::uint64_t>(v.dv[i]));
      }
    }
  }
  return h;
}

/// One deterministic workload event against the engine under test.
struct EngineEvent {
  NodeId from;
  proto::Message msg;
};

/// Seed-derived mixed stream: local PUTs/GETs, per-DC monotonic replicate
/// streams, heartbeats — everything the WAL must carry across a crash.
std::vector<EngineEvent> build_events(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<EngineEvent> events;
  Timestamp next_ut[3] = {0, 500'000, 500'000};  // remote DC clocks
  for (int i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.uniform(10);
    if (kind < 4) {
      proto::PutReq r;
      r.client = 1 + static_cast<ClientId>(rng.uniform(5));
      r.op_id = static_cast<std::uint64_t>(i);
      r.key = store::intern_key("1:k" + std::to_string(rng.uniform(16)));
      r.value = "v" + std::to_string(i);
      r.dv = VersionVector(3);
      events.push_back({NodeId{0, 1}, r});
    } else if (kind < 8) {
      const DcId j = kind < 6 ? 1 : 2;
      next_ut[j] += 1 + rng.uniform(2'000);
      store::Version v;
      v.key = store::intern_key("1:r" + std::to_string(rng.uniform(16)));
      v.value = "r" + std::to_string(i);
      v.sr = j;
      v.ut = next_ut[j];
      v.dv = VersionVector(3);
      events.push_back({NodeId{j, 1}, proto::Replicate{v}});
    } else if (kind == 8) {
      const DcId j = 1 + static_cast<DcId>(rng.uniform(2));
      next_ut[j] += 1 + rng.uniform(2'000);
      events.push_back({NodeId{j, 1}, proto::Heartbeat{j, next_ut[j]}});
    } else {
      proto::GetReq r;
      r.client = 1 + static_cast<ClientId>(rng.uniform(5));
      r.op_id = static_cast<std::uint64_t>(i);
      r.key = store::intern_key("1:k" + std::to_string(rng.uniform(16)));
      r.rdv = VersionVector(3);  // never parks: parked requests are volatile
      events.push_back({NodeId{0, 1}, r});
    }
  }
  return events;
}

class EngineRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineRecoveryTest, CrashAtRandomPointsMatchesUncrashedDigest) {
  const std::uint64_t seed = GetParam();
  const int kEvents = 400;
  const std::vector<EngineEvent> events = build_events(seed, kEvents);
  const TopologyConfig topo = testutil::test_topology();
  const ProtocolConfig protocol;
  const ServiceConfig service;

  // Reference: the same stream, never crashed, no durability at all.
  testutil::MockContext ref_ctx;
  ref_ctx.now = 1'000'000;
  PoccServer ref(NodeId{0, 1}, topo, protocol, service, ref_ctx);
  for (const EngineEvent& ev : events) {
    ref_ctx.now += 10;
    ref.handle_message(ev.from, ev.msg);
  }

  // Crashed run: group commit after every event (the host syncs per drained
  // batch), checkpoints landing mid-stream, and 4 random full crashes where
  // engine + WAL object are destroyed and rebuilt from disk.
  Rng rng(seed ^ 0xdead);
  std::vector<int> crash_at;
  for (int i = 0; i < 4; ++i) {
    crash_at.push_back(40 + static_cast<int>(rng.uniform(kEvents - 80)));
  }
  std::sort(crash_at.begin(), crash_at.end());

  const std::string dir = fresh_dir("engine_" + std::to_string(seed));
  wal::PartitionWal::Options wal_opt;
  wal_opt.checkpoint_bytes = 4096;  // several checkpoints over the run
  WalContext ctx;
  ctx.now = 1'000'000;
  auto wal = std::make_unique<wal::PartitionWal>(dir, wal_opt);
  ctx.wal = wal.get();
  auto engine =
      std::make_unique<PoccServer>(NodeId{0, 1}, topo, protocol, service, ctx);
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (!crash_at.empty() && crash_at.front() == i) {
      crash_at.erase(crash_at.begin());
      ++crashes;
      // Fail-stop: drop the process image, reopen the directory, rebuild.
      engine.reset();
      wal.reset();
      wal = std::make_unique<wal::PartitionWal>(dir, wal_opt);
      ctx.wal = wal.get();
      engine = std::make_unique<PoccServer>(NodeId{0, 1}, topo, protocol,
                                            service, ctx);
      wal->replay(
          [&](const store::Version& v) { engine->restore_version(v); },
          [&](const VersionVector& vv) { engine->restore_vv(vv); });
    }
    ctx.now += 10;
    engine->handle_message(events[i].from, events[i].msg);
    if (wal->unsynced_bytes() > 0) wal->sync();
    if (wal->wants_checkpoint()) {
      const std::uint64_t cp_seq = wal->begin_checkpoint();
      ASSERT_TRUE(wal->commit_checkpoint(
          cp_seq, wal::encode_snapshot(engine->partition_store(),
                                       engine->version_vector())));
      ++checkpoints;
    }
  }
  EXPECT_EQ(crashes, 4u);
  EXPECT_GT(checkpoints, 0u) << "run too small to exercise checkpoints";
  EXPECT_EQ(engine_digest(*engine), engine_digest(ref))
      << "recovered state diverged from the never-crashed run (seed "
      << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRecoveryTest,
                         ::testing::Values(11ull, 23ull, 47ull));

// ======================================================== sim level =====

TEST(SimWalRecovery, CrashPlansPassCheckerAndReplayBitIdentical) {
  // Pick the first seeds whose derived fault plans contain fail-stop
  // crashes, so the snapshot rebuild path actually runs.
  std::vector<std::uint64_t> crash_seeds;
  for (std::uint64_t seed = 400; seed < 440 && crash_seeds.size() < 3;
       ++seed) {
    fault::FuzzCase c;
    c.seed = seed;
    const fault::FaultPlan plan = fault::plan_for_case(c);
    for (const fault::FaultEvent& ev : plan.events) {
      if (ev.kind == fault::FaultKind::kCrash) {
        crash_seeds.push_back(seed);
        break;
      }
    }
  }
  ASSERT_EQ(crash_seeds.size(), 3u)
      << "fault-plan generator stopped producing crash events";
  for (const std::uint64_t seed : crash_seeds) {
    fault::FuzzCase c;
    c.seed = seed;
    const fault::FuzzOutcome first = fault::run_fuzz_case(c);
    EXPECT_TRUE(first.ok) << fault::repro_line(c, first)
                          << (first.failures.empty()
                                  ? ""
                                  : "\n  " + first.failures.front());
    const fault::FuzzOutcome replay = fault::run_fuzz_case(c);
    EXPECT_EQ(first.digest, replay.digest)
        << "crash-plan replay diverged: " << fault::repro_line(c, first);
  }
}

// ================================================= deployment level =====

/// Two DCs x one partition, each hosted by a durable single-worker
/// TcpNodeHost on an ephemeral port.
struct TwoDcDeployment {
  net::ClusterLayout layout;
  std::vector<std::unique_ptr<net::TcpNodeHost>> hosts;
  std::vector<std::string> dirs;

  explicit TwoDcDeployment(const std::string& name) {
    layout.topology.num_dcs = 2;
    layout.topology.partitions_per_dc = 1;
    layout.topology.partition_scheme = PartitionScheme::kHash;
    layout.system = SystemKind::kPocc;
    layout.protocol.heartbeat_interval_us = 5'000;
    layout.protocol.stabilization_interval_us = 20'000;
    layout.protocol.gc_interval_us = 200'000;
    layout.protocol.block_timeout_us = 2'000'000;
    for (DcId dc = 0; dc < 2; ++dc) {
      dirs.push_back(fresh_dir(name + "_d" + std::to_string(dc)));
      net::ProcessSpec spec;
      spec.dc = dc;
      spec.parts.push_back(0);
      spec.threads = 1;
      spec.host = "127.0.0.1";
      net::TcpNodeHost::Options opt;
      opt.listen_port = 0;
      opt.seed = 10 + dc;
      opt.data_dir = dirs.back();
      hosts.push_back(std::make_unique<net::TcpNodeHost>(spec, layout, opt));
      spec.port = hosts.back()->port();
      layout.processes.push_back(spec);
      layout.nodes.push_back(
          net::NodeAddress{NodeId{dc, 0}, "127.0.0.1", spec.port});
    }
    for (auto& host : hosts) host->start(layout.processes);
  }

  /// kill -9 equivalent of DC `dc`'s process.
  void crash(DcId dc) {
    hosts[dc]->crash_stop();
    hosts[dc].reset();
  }

  /// Restart DC `dc` on its old port and data dir (WAL replay, then peer
  /// recovery behind the client gate).
  net::TcpNodeHost& restart(DcId dc, Duration recovery_deadline_us) {
    net::ProcessSpec spec = layout.processes[dc];
    spec.port = 0;  // the option carries the bind port
    net::TcpNodeHost::Options opt;
    opt.listen_port = layout.processes[dc].port;
    opt.seed = 99;
    opt.data_dir = dirs[dc];
    opt.recovery_deadline_us = recovery_deadline_us;
    hosts[dc] = std::make_unique<net::TcpNodeHost>(spec, layout, opt);
    EXPECT_EQ(hosts[dc]->port(), layout.processes[dc].port);
    hosts[dc]->start(layout.processes);
    return *hosts[dc];
  }

  ~TwoDcDeployment() {
    for (auto& host : hosts) {
      if (host != nullptr) host->stop();
    }
  }
};

/// Polls until `host`'s client gate opens; false after `timeout`.
bool wait_recovered(net::TcpNodeHost& host, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (host.recovering() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return !host.recovering();
}

/// Value of the first sample named `name` in `host`'s registry (-1 if
/// absent); with one hosted partition, that partition's sample.
double gauge_value(net::TcpNodeHost& host, const std::string& name) {
  for (const stats::Snapshot::Sample& sample :
       host.registry().snapshot().samples) {
    if (sample.name == name) return sample.value;
  }
  return -1;
}

TEST(TcpRecovery, CrashStopRestartReplaysWalAndRebuildsFromPeer) {
  TwoDcDeployment d("tcp");
  const net::ClusterLayout& layout = d.layout;
  auto& hosts = d.hosts;
  constexpr auto kRecoverWithin = std::chrono::seconds(15);
  // Fresh cluster: instant handshake.
  ASSERT_TRUE(wait_recovered(*hosts[0], kRecoverWithin));
  ASSERT_TRUE(wait_recovered(*hosts[1], kRecoverWithin));

  auto pool0 = std::make_unique<net::TcpClientPool>(layout, 0);
  pool0->start();
  ASSERT_TRUE(pool0->wait_connected(10'000'000));
  net::TcpClientPool pool1(layout, 1);
  pool1.start();
  ASSERT_TRUE(pool1.wait_connected(10'000'000));

  // Durable local write at DC0, then kill -9 the DC0 process.
  net::TcpSession& s0 = pool0->connect(1);
  ASSERT_TRUE(s0.put("alpha", "before-crash").ok);
  ASSERT_TRUE(s0.get("alpha").ok);
  pool0->stop();
  pool0.reset();
  d.crash(0);

  // A write this DC misses entirely while it is down: only the recovery
  // handshake with the peer can deliver it.
  net::TcpSession& s1 = pool1.connect(2);
  ASSERT_TRUE(s1.put("beta", "written-while-down").ok);

  // Restart on the same port + data dir: WAL replay, then peer recovery.
  d.restart(0, net::TcpNodeHost::Options{}.recovery_deadline_us);
  ASSERT_TRUE(wait_recovered(*hosts[0], kRecoverWithin))
      << "recovery gate never opened after restart";
  EXPECT_EQ(gauge_value(*hosts[0], "pocc_engine_recovery_gate_expired"), 0)
      << "the gate opened at its deadline although the peer answered";
  ASSERT_EQ(hosts[0]->replay_stats().size(), 1u);
  EXPECT_GE(hosts[0]->replay_stats()[0].log_versions, 1u)
      << "the pre-crash put must be in the replayed WAL";

  pool0 = std::make_unique<net::TcpClientPool>(layout, 0);
  pool0->start();
  ASSERT_TRUE(pool0->wait_connected(10'000'000));
  net::TcpSession& s2 = pool0->connect(3);
  const auto local = s2.get("alpha");
  ASSERT_TRUE(local.ok);
  ASSERT_TRUE(local.found) << "WAL replay lost a durable local write";
  EXPECT_EQ(local.value, "before-crash");
  // The missed remote write may still be in flight right after the gate
  // opens only on pathological schedulers; poll briefly.
  std::string beta;
  for (int i = 0; i < 100; ++i) {
    const auto remote = s2.get("beta");
    ASSERT_TRUE(remote.ok);
    if (remote.found) {
      beta = remote.value;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(beta, "written-while-down")
      << "peer recovery did not rebuild the missed replication suffix";

  pool0->stop();
  pool1.stop();
}

TEST(TcpRecovery, GateOpensAtDeadlineWhenPeerStaysDown) {
  // A peer that never comes back never sends its RecoveryDone: the client
  // gate must open on its own once the recovery deadline passes, even on a
  // loop with nothing else to do, and the DC then serves clients.
  TwoDcDeployment d("deadline");
  ASSERT_TRUE(wait_recovered(*d.hosts[0], std::chrono::seconds(15)));
  ASSERT_TRUE(wait_recovered(*d.hosts[1], std::chrono::seconds(15)));
  d.crash(0);
  d.hosts[1]->stop();  // for good
  net::TcpNodeHost& host = d.restart(0, /*recovery_deadline_us=*/300'000);
  EXPECT_TRUE(host.recovering()) << "the gate must close while a peer owes "
                                    "its RecoveryDone";
  ASSERT_TRUE(wait_recovered(host, std::chrono::seconds(3)))
      << "recovery gate did not open at its deadline";
  EXPECT_EQ(gauge_value(host, "pocc_engine_recovery_gate_expired"), 1);

  net::TcpClientPool pool(d.layout, 0);
  pool.start();
  ASSERT_TRUE(pool.wait_connected(10'000'000));
  net::TcpSession& s = pool.connect(7);
  ASSERT_TRUE(s.put("gamma", "after-deadline").ok);
  const auto got = s.get("gamma");
  ASSERT_TRUE(got.ok);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(got.value, "after-deadline");
  pool.stop();
}

/// A raw client connection to 127.0.0.1:`port` (-1 when the connect fails).
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_message(int fd, const proto::Message& m) {
  std::vector<std::uint8_t> frame;
  proto::encode(m, frame);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// The next frame the server sends on `fd` within `timeout_ms`, if any.
/// `buf` keeps the bytes read past that frame for the next call.
std::optional<proto::Frame> read_frame(int fd, int timeout_ms,
                                       std::vector<std::uint8_t>& buf) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    proto::DecodeResult r = proto::decode_frame(buf.data(), buf.size());
    if (r.status == proto::DecodeResult::Status::kOk) {
      buf.erase(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(r.consumed));
      return std::move(r.frame);
    }
    if (r.status == proto::DecodeResult::Status::kError) return std::nullopt;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) != 1) {
      return std::nullopt;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

/// Polls `value` until it reaches `want`; false after 5 s.
template <typename Fn>
bool wait_for(Fn value, std::uint64_t want) {
  for (int i = 0; i < 500 && value() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return value() >= want;
}

TEST(TcpRecovery, HeldRequestAnswersOnTheClientsNewConnection) {
  // A client whose GET is held by the recovery gate reconnects and retries
  // the op. The retry is absorbed as a duplicate of the op in flight, so
  // the held original must answer on the connection the client has now,
  // not on the one it arrived on.
  TwoDcDeployment d("held");
  ASSERT_TRUE(wait_recovered(*d.hosts[0], std::chrono::seconds(15)));
  ASSERT_TRUE(wait_recovered(*d.hosts[1], std::chrono::seconds(15)));
  d.crash(0);
  d.hosts[1]->stop();  // for good: the gate opens at its deadline
  net::TcpNodeHost& host = d.restart(0, /*recovery_deadline_us=*/300'000);
  EXPECT_TRUE(host.recovering());

  proto::GetReq get;
  get.client = 4242;
  get.key = store::intern_key("held");
  get.rdv = VersionVector(2);
  get.op_id = 1;
  const int first = dial(host.port());
  ASSERT_GE(first, 0);
  ASSERT_TRUE(send_message(first, get));
  ASSERT_TRUE(wait_for([&] { return host.client_requests(); }, 1));
  ::close(first);

  const int second = dial(host.port());
  ASSERT_GE(second, 0);
  ASSERT_TRUE(send_message(second, get));
  std::vector<std::uint8_t> buf;
  const std::optional<proto::Frame> reply = read_frame(second, 5'000, buf);
  ::close(second);
  ASSERT_TRUE(reply.has_value()) << "no reply on the client's new connection";
  const auto* msg = std::get_if<proto::Message>(&*reply);
  ASSERT_NE(msg, nullptr);
  const auto* got = std::get_if<proto::GetReply>(msg);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->op_id, 1u);
  EXPECT_EQ(host.dropped_frames(), 0u);
}

TEST(TcpRecovery, StaleCopyOfAnAnsweredOpDoesNotRunAgain) {
  // One serial session on one connection: PUT op 1, sixteen GETs of the
  // same key, then a late copy of op 1 and GET op 18. The session has
  // moved past op 1, so its copy must not run again: the next frame
  // answers op 18 with op 1's version.
  TwoDcDeployment d("stale");
  ASSERT_TRUE(wait_recovered(*d.hosts[0], std::chrono::seconds(15)));
  ASSERT_TRUE(wait_recovered(*d.hosts[1], std::chrono::seconds(15)));
  net::TcpNodeHost& host = *d.hosts[0];
  const int fd = dial(host.port());
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> buf;
  const auto next_reply = [&]() -> std::optional<proto::Message> {
    std::optional<proto::Frame> frame = read_frame(fd, 5'000, buf);
    if (!frame.has_value()) return std::nullopt;
    auto* msg = std::get_if<proto::Message>(&*frame);
    if (msg == nullptr) return std::nullopt;
    return std::move(*msg);
  };

  proto::PutReq put;
  put.client = 4343;
  put.key = store::intern_key("stale");
  put.value = "a";
  put.dv = VersionVector(2);
  put.op_id = 1;
  ASSERT_TRUE(send_message(fd, put));
  std::optional<proto::Message> reply = next_reply();
  ASSERT_TRUE(reply.has_value());
  const auto* put_reply = std::get_if<proto::PutReply>(&*reply);
  ASSERT_NE(put_reply, nullptr);
  const Timestamp ut = put_reply->ut;
  const DcId sr = put_reply->sr;

  proto::GetReq get;
  get.client = put.client;
  get.key = put.key;
  get.rdv = VersionVector(2);
  for (std::uint64_t op = 2; op <= 17; ++op) {
    get.op_id = op;
    ASSERT_TRUE(send_message(fd, get));
    reply = next_reply();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(std::holds_alternative<proto::GetReply>(*reply));
  }
  ASSERT_TRUE(send_message(fd, put));  // the late copy of op 1
  get.op_id = 18;
  ASSERT_TRUE(send_message(fd, get));
  reply = next_reply();
  ::close(fd);
  ASSERT_TRUE(reply.has_value());
  const auto* got = std::get_if<proto::GetReply>(&*reply);
  ASSERT_NE(got, nullptr) << "the copy of op 1 ran again: "
                          << proto::message_name(*reply);
  EXPECT_EQ(got->op_id, 18u);
  EXPECT_TRUE(got->item.found);
  EXPECT_EQ(got->item.ut, ut);
  EXPECT_EQ(got->item.sr, sr);
  EXPECT_EQ(host.group().deduped_requests(), 1u);
}

TEST(TcpRecovery, DownPeerShedsPutsBeforeTheTransportDrops) {
  // DC 1 is down, so DC 0's replication link queues every Replicate in the
  // transport's reconnect buffer. At half its cap admission answers PUTs
  // with Overloaded, before the transport refuses a frame. Once DC 1 is
  // back and the queue drains, PUTs are admitted again, and DC 1 holds
  // every value DC 0 admitted.
  TwoDcDeployment d("shed");
  ASSERT_TRUE(wait_recovered(*d.hosts[0], std::chrono::seconds(15)));
  ASSERT_TRUE(wait_recovered(*d.hosts[1], std::chrono::seconds(15)));
  d.crash(1);
  // ready() is false once DC 0 sees its link to DC 1 down.
  for (int i = 0; i < 500 && d.hosts[0]->ready(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(d.hosts[0]->ready()) << "DC 0 never saw DC 1 go down";

  net::TcpClientPool pool0(d.layout, 0);
  pool0.start();
  ASSERT_TRUE(pool0.wait_connected(10'000'000));
  net::TcpSession& s = pool0.connect(1);
  std::vector<std::pair<std::string, std::string>> admitted;
  const auto put = [&](int i) {
    const std::string key = "shed:" + std::to_string(i);
    std::string value(proto::kMaxValueBytes, 'v');
    value.replace(0, key.size(), key);
    const bool ok = s.put(key, value).ok;
    if (ok) admitted.emplace_back(key, std::move(value));
    return ok;
  };
  // Half the 32 MiB down cap is about 128 values of 128 KiB.
  int next = 0;
  while (next < 400 && put(next)) ++next;
  ASSERT_LT(next, 400) << "no PUT was shed while the peer was down";
  EXPECT_GE(admitted.size(), 120u);
  EXPECT_EQ(s.resilience_stats().overloaded, 1u);
  const double queued = gauge_value(*d.hosts[0], "pocc_batch_pending_bytes");
  EXPECT_GE(queued,
            static_cast<double>(
                net::TcpTransport::Options{}.max_down_buffer_bytes / 2));
  const net::TransportStats shed_at = d.hosts[0]->transport_stats();
  EXPECT_EQ(shed_at.down_buffer_drops, 0u) << "a frame was refused first";
  EXPECT_EQ(shed_at.send_overflows, 0u);

  d.restart(1, net::TcpNodeHost::Options{}.recovery_deadline_us);
  bool readmitted = false;
  for (int i = 0; i < 1000 && !readmitted; ++i) {
    readmitted = put(++next);
    if (!readmitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(readmitted) << "PUTs stayed shed after DC 1 came back";
  ASSERT_TRUE(wait_recovered(*d.hosts[1], std::chrono::seconds(15)));

  net::TcpClientPool pool1(d.layout, 1);
  pool1.start();
  ASSERT_TRUE(pool1.wait_connected(10'000'000));
  net::TcpSession& r = pool1.connect(2);
  for (const auto& [key, value] : admitted) {
    bool seen = false;
    for (int i = 0; i < 500 && !seen; ++i) {
      const auto got = r.get(key);
      ASSERT_TRUE(got.ok);
      seen = got.found && got.value == value;
      if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(seen) << "DC 1 never read the admitted " << key;
  }
  // A known gap, bounded so that a worse overflow shows: DC 1's
  // RecoveryReq makes DC 0 stream every version past DC 1's durable cut,
  // all of them still queued as Replicates on DC 0's down link, and that
  // stream is never shed. When the link is still redialing, queue plus
  // stream overflow the down cap by one frame, a RecoveryVersion that
  // duplicates a queued Replicate (so no value is lost here); when the
  // redial wins the race, the up link's cap takes it all.
  const net::TransportStats after = d.hosts[0]->transport_stats();
  EXPECT_LE(after.down_buffer_drops, 1u);
  EXPECT_EQ(after.send_overflows, 0u);
  pool0.stop();
  pool1.stop();
}

}  // namespace
}  // namespace pocc
