// The production runtime host end to end, per engine: the HA-POCC and Cure*
// engines, a missing key, monotonic put timestamps, a double stop() and the
// engine series' parity with the simulator on the TCP deployment fixture
// (tcp_deployment.hpp) — multi-partition TcpNodeHosts over localhost
// sockets, driven by TcpClientPool sessions.
//
// Timing assertions are deliberately generous — this suite runs on loaded CI
// machines.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "cluster/sim_cluster.hpp"
#include "net/chaos.hpp"
#include "net/tcp_client.hpp"
#include "tcp_deployment.hpp"

namespace pocc::net {
namespace {

using testutil::Deployment;
using testutil::eventually;
using testutil::expect_clean_replay;

/// (name, labels) of every pocc_engine_* series in `r`.
std::set<std::pair<std::string, stats::Labels>> engine_series(
    const stats::Registry& r) {
  std::set<std::pair<std::string, stats::Labels>> out;
  for (const auto& s : r.snapshot().samples) {
    if (s.name.rfind("pocc_engine_", 0) == 0) out.emplace(s.name, s.labels);
  }
  return out;
}

TEST(Runtime, EngineSeriesAreTheSimulatorsPerEngine) {
  // Same series under the same definitions: a poccd process and a simulated
  // data center hold one set of pocc_engine_* series, whichever engine runs.
  for (const SystemKind system :
       {SystemKind::kPocc, SystemKind::kCure, SystemKind::kHaPocc,
        SystemKind::kScalarPocc}) {
    Deployment deployment(system);
    cluster::SimClusterConfig cfg;
    cfg.topology = deployment.layout().topology;
    cfg.system = system;
    cluster::SimCluster sim(cfg);
    const auto tcp = engine_series(deployment.host(0).registry());
    EXPECT_FALSE(tcp.empty()) << system_name(system);
    EXPECT_EQ(engine_series(sim.registry(0)), tcp) << system_name(system);
  }
}

TEST(Runtime, UnwrittenKeyIsNotFound) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& s = cluster.connect(0);
  const auto get = s.get("rt:missing");
  ASSERT_TRUE(get.ok);
  EXPECT_FALSE(get.found);
  expect_clean_replay(cluster);
}

TEST(Runtime, SessionPutsGetMonotonicTimestamps) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& s = cluster.connect(0);
  Timestamp prev = 0;
  for (int i = 0; i < 5; ++i) {
    const auto put = s.put("rt:counter", std::to_string(i));
    ASSERT_TRUE(put.ok);
    EXPECT_GT(put.ut, prev);
    prev = put.ut;
  }
  const auto get = s.get("rt:counter");
  ASSERT_TRUE(get.ok);
  EXPECT_EQ(get.value, "4");
  expect_clean_replay(cluster);
}

TEST(Runtime, CureRemoteReaderSeesStabilizedWrite) {
  // Cure* exposes a remote write only once a stabilization round covers it;
  // the value must still become visible in every other DC.
  Deployment cluster(SystemKind::kCure);
  TcpSession& writer = cluster.connect(0);
  ASSERT_TRUE(writer.put("rt:cure", "v").ok);
  TcpSession& reader = cluster.connect(1);
  EXPECT_TRUE(eventually(10'000'000, [&] {
    const auto got = reader.get("rt:cure");
    return got.ok && got.found && got.value == "v";
  })) << "stabilized write never visible in DC 1";
  expect_clean_replay(cluster);
}

TEST(Runtime, HaPoccFallsBackWhileAWanLinkStallsAndRecovers) {
  // HA-POCC over TCP (§III-B): DC0 -> DC1 replication stalls for 2 s.
  // Carol (DC1) picks up a dependency on Alice's stalled write through Bob
  // (DC2); her next read of that key blocks past the 150 ms block timeout,
  // the server closes her session, and she continues pessimistically. Once
  // the link delivers, she reads the new value.
  Deployment cluster(SystemKind::kHaPocc, /*resilience=*/nullptr,
                     /*block_timeout_us=*/150'000);
  TcpSession& alice = cluster.connect(0);
  TcpSession& carol = cluster.connect(1);
  TcpSession& bob = cluster.connect(2);

  ASSERT_TRUE(alice.put("rt:ha:item", "v1").ok);
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = carol.get("rt:ha:item");
    return got.ok && got.value == "v1";
  })) << "v1 never replicated to DC1";

  ChaosProfile stall;
  stall.base_delay_us = 2'000'000;
  cluster.arm_link(/*src=*/0, /*dst=*/1, stall);
  ASSERT_TRUE(alice.put("rt:ha:item", "v2").ok);

  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = bob.get("rt:ha:item");
    return got.ok && got.value == "v2";
  })) << "v2 never replicated to DC2";
  ASSERT_TRUE(bob.put("rt:ha:reply", "saw v2").ok);
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = carol.get("rt:ha:reply");
    return got.ok && got.found;
  })) << "Bob's reply never replicated to DC1";

  const auto during = carol.get("rt:ha:item");
  EXPECT_FALSE(during.ok);
  EXPECT_TRUE(during.session_closed)
      << "a read blocked past the timeout must close the session";
  EXPECT_TRUE(carol.pessimistic());

  EXPECT_TRUE(eventually(10'000'000, [&] {
    const auto got = carol.get("rt:ha:item");
    return got.ok && got.value == "v2";
  })) << "DC1 never caught up after the stall";
  expect_clean_replay(cluster);
}

TEST(Runtime, StopIsIdempotent) {
  Deployment cluster(SystemKind::kPocc);
  TcpSession& s = cluster.connect(0);
  ASSERT_TRUE(s.put("rt:stop", "v").ok);
  cluster.stop();
  cluster.stop();  // second call is a no-op; the destructor makes a third
}

}  // namespace
}  // namespace pocc::net
