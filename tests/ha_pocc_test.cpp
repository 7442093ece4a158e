// HA-POCC engine tests (§III-B, §IV-C): partition detection via parked-request
// timeouts, pessimistic-session visibility, opt-origin tagging, infrequent
// stabilization, lost-update discard — plus injector-driven failover
// scenarios on a live cluster (fault layer, src/fault/).
#include "ha/ha_pocc_server.hpp"

#include <gtest/gtest.h>

#include "cluster/sim_cluster.hpp"
#include "fault/fault_injector.hpp"
#include "store/key_space.hpp"
#include "test_util.hpp"

namespace pocc {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

using testutil::MockContext;
using testutil::test_topology;

class HaPoccTest : public ::testing::Test {
 protected:
  HaPoccTest()
      : server_(NodeId{0, 0}, test_topology(), make_protocol(), service_,
                ctx_) {
    ctx_.now = 1'000'000;
  }

  static ProtocolConfig make_protocol() {
    ProtocolConfig p;
    p.block_timeout_us = 50'000;
    return p;
  }

  proto::GetReq get_req(ClientId c, const std::string& key, VersionVector rdv,
                        bool pessimistic) {
    proto::GetReq r;
    r.client = c;
    r.key = K(key);
    r.rdv = std::move(rdv);
    r.pessimistic = pessimistic;
    return r;
  }

  void replicate(const std::string& key, Timestamp ut, DcId sr,
                 VersionVector dv = VersionVector(3)) {
    store::Version v;
    v.key = K(key);
    v.value = "v@" + std::to_string(ut);
    v.sr = sr;
    v.ut = ut;
    v.dv = std::move(dv);
    server_.handle_message(NodeId{sr, 0}, proto::Replicate{v});
  }

  void put_local(ClientId c, const std::string& key, std::string value,
                 bool pessimistic) {
    proto::PutReq r;
    r.client = c;
    r.key = K(key);
    r.value = std::move(value);
    r.dv = VersionVector(3);
    r.pessimistic = pessimistic;
    server_.handle_message(NodeId{0, 0}, r);
  }

  MockContext ctx_;
  ServiceConfig service_;
  HaPoccServer server_;
};

TEST_F(HaPoccTest, OptimisticPathBehavesLikePocc) {
  replicate("0:a", 900'000, 1);
  server_.handle_message(NodeId{0, 0},
                         get_req(1, "0:a", VersionVector(3), false));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].second.item.found);
  EXPECT_EQ(replies[0].second.item.ut, 900'000);  // freshest, stability-free
}

TEST_F(HaPoccTest, BlockedGetTimesOutAndClosesSession) {
  server_.handle_message(
      NodeId{0, 0}, get_req(1, "0:a", VersionVector{0, 500'000, 0}, false));
  EXPECT_EQ(server_.parked_requests(), 1u);
  // An expiry timer was armed for the parked request.
  Timestamp expire_at = 0;
  for (const auto& [at, id] : ctx_.timers) {
    if (id == server::kTimerExpire) expire_at = at;
  }
  ASSERT_GT(expire_at, 0);
  ctx_.now = expire_at;
  server_.on_timer(server::kTimerExpire);
  const auto closed = ctx_.replies_of<proto::SessionClosed>();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first, 1u);
  EXPECT_EQ(server_.parked_requests(), 0u);
  EXPECT_EQ(server_.sessions_closed(), 1u);
}

TEST_F(HaPoccTest, PessimisticGetServedFromStableVersions) {
  replicate("0:a", 200'000, 1);
  replicate("0:a", 900'000, 1);
  server_.handle_message(NodeId{0, 1},
                         proto::GssBroadcast{VersionVector{0, 250'000, 0}});
  server_.handle_message(NodeId{0, 0},
                         get_req(2, "0:a", VersionVector(3), true));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.item.ut, 200'000);  // freshest *stable*
  EXPECT_EQ(replies[0].second.item.fresher_versions, 1u);
}

TEST_F(HaPoccTest, OptimisticPutsAreTagged) {
  put_local(1, "0:opt", "v", /*pessimistic=*/false);
  put_local(2, "0:pess", "v", /*pessimistic=*/true);
  EXPECT_TRUE(
      server_.partition_store().find(K("0:opt"))->freshest()->opt_origin);
  EXPECT_FALSE(
      server_.partition_store().find(K("0:pess"))->freshest()->opt_origin);
}

TEST_F(HaPoccTest, OptOriginLocalItemHiddenFromPessimisticUntilStable) {
  // An optimistic client writes a local item depending on a remote item this
  // DC received but which is not stable yet.
  replicate("0:dep", 500'000, 1);  // received, GSS still at 0 => unstable
  proto::PutReq put;
  put.client = 1;
  put.key = K("0:opt");
  put.value = "optimistic-write";
  put.dv = VersionVector{0, 500'000, 0};
  put.pessimistic = false;
  server_.handle_message(NodeId{0, 0}, put);

  // Pessimistic session reads it: must fall back to the initial version.
  server_.handle_message(NodeId{0, 0},
                         get_req(2, "0:opt", VersionVector(3), true));
  auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].second.item.found);

  // An optimistic session sees it immediately.
  server_.handle_message(NodeId{0, 0},
                         get_req(3, "0:opt", VersionVector(3), false));
  replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[1].second.item.found);

  // Once the GSS covers the dependency and the item, pessimistic reads see it.
  const Timestamp item_ut =
      server_.partition_store().find(K("0:opt"))->freshest()->ut;
  server_.handle_message(
      NodeId{0, 1},
      proto::GssBroadcast{VersionVector{item_ut, 600'000, 0}});
  server_.handle_message(NodeId{0, 0},
                         get_req(2, "0:opt", VersionVector(3), true));
  replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[2].second.item.found);
}

TEST_F(HaPoccTest, PessimisticGetWaitsOnGssNotVv) {
  replicate("0:zz", 800'000, 1);  // VV[1] = 800k, GSS[1] = 0
  server_.handle_message(
      NodeId{0, 0}, get_req(2, "0:a", VersionVector{0, 700'000, 0}, true));
  EXPECT_EQ(server_.parked_requests(), 1u);
  server_.handle_message(NodeId{0, 1},
                         proto::GssBroadcast{VersionVector{0, 750'000, 0}});
  EXPECT_EQ(ctx_.replies_of<proto::GetReply>().size(), 1u);
}

TEST_F(HaPoccTest, RemoteSliceTimeoutSendsAbortToCoordinator) {
  proto::SliceReq slice;
  slice.tx_id = 7;
  slice.coordinator = NodeId{0, 1};
  slice.keys = {K("0:k")};
  slice.tv = VersionVector{0, 999'000, 0};  // unreachable during partition
  server_.handle_message(NodeId{0, 1}, slice);
  EXPECT_EQ(server_.parked_requests(), 1u);
  ctx_.now += 60'000;
  server_.on_timer(server::kTimerExpire);
  const auto aborts = ctx_.sent_of<proto::SliceReply>();
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_TRUE(aborts[0].second.aborted);
  EXPECT_EQ(aborts[0].first, (NodeId{0, 1}));
}

TEST_F(HaPoccTest, CoordinatorAbortsTxOnAbortedSlice) {
  proto::RoTxReq tx;
  tx.client = 9;
  tx.keys = {K("1:far")};  // remote partition -> pending coordinator state
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 0}, tx);
  const auto slices = ctx_.sent_of<proto::SliceReq>();
  ASSERT_EQ(slices.size(), 1u);
  proto::SliceReply abort;
  abort.tx_id = slices[0].second.tx_id;
  abort.aborted = true;
  server_.handle_message(NodeId{0, 1}, abort);
  const auto closed = ctx_.replies_of<proto::SessionClosed>();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first, 9u);
}

TEST_F(HaPoccTest, InfrequentStabilizationMaintainsGss) {
  server_.start();
  // The HA stabilization interval is much longer than Cure's (§IV-C).
  Timestamp stab_at = 0;
  for (const auto& [at, id] : ctx_.timers) {
    if (id == server::kTimerStabilization) stab_at = at;
  }
  EXPECT_GE(stab_at - ctx_.now, ProtocolConfig{}.ha_stabilization_interval_us);

  replicate("0:a", 400'000, 1);
  server_.on_timer(server::kTimerStabilization);
  server_.handle_message(
      NodeId{0, 1},
      proto::StabReport{NodeId{0, 1}, VersionVector{0, 300'000, 0}});
  EXPECT_EQ(server_.gss()[1], 300'000);
}

// ------------------------------------------------------------------------
// Injector-driven failover on a live cluster.

cluster::SimClusterConfig ha_cluster_config() {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 2;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(200, 0);
  cfg.latency.inter_dc_base_us = {
      {0, 5'000, 8'000}, {5'000, 0, 6'000}, {8'000, 6'000, 0}};
  cfg.clock = ClockConfig::perfect();
  cfg.protocol.block_timeout_us = 30'000;
  cfg.protocol.ha_stabilization_interval_us = 20'000;
  cfg.system = SystemKind::kHaPocc;
  cfg.seed = 5;
  cfg.enable_checker = true;
  return cfg;
}

TEST(HaPoccClusterTest, HeartbeatLossDrivesFailoverAndPromotion) {
  // §III-B end to end, triggered by *heartbeat* loss rather than a data
  // partition: an idle replica's suppressed heartbeats freeze remote VV
  // entries, a dependent GET blocks past the timeout, the session is closed,
  // the client falls back to the pessimistic protocol, and — once the fault
  // clears — is promoted back on its next reply.
  cluster::SimCluster cluster(ha_cluster_config());
  cluster.run_for(5'000);
  // Freeze the (idle) dc1/p0 -> dc0/p0 heartbeat stream first, so
  // everything written next stays ahead of dc0/p0's frozen VV[1].
  cluster.network().suppress_heartbeats(NodeId{1, 0});

  // dc1 writer builds a cross-partition dependency chain on partition 1.
  auto& writer = cluster.create_manual_client(1, 1);
  ASSERT_TRUE(writer.put("1:a", "a").ok);
  ASSERT_TRUE(writer.get("1:a").found);          // DV[1] = ut(a)
  ASSERT_TRUE(writer.put("1:c", "c").ok);        // carries that DV
  cluster.run_for(20'000);                        // replicate into dc0

  auto& reader = cluster.create_manual_client(0, 1);
  ASSERT_TRUE(reader.get("1:c").found);  // RDV[1] = ut(a) now
  // Partition-0 key: served by dc0/p0 whose VV[1] is frozen below ut(a).
  const auto blocked = reader.get("0:q", /*max_wait=*/200'000);
  EXPECT_FALSE(blocked.ok);  // session closed by the block timeout
  EXPECT_TRUE(reader.engine().pessimistic());
  auto* ha = dynamic_cast<HaPoccServer*>(&cluster.engine(NodeId{0, 0}));
  ASSERT_NE(ha, nullptr);
  EXPECT_GT(ha->sessions_closed(), 0u);

  cluster.network().resume_heartbeats(NodeId{1, 0});
  cluster.run_for(100'000);  // VV + GSS catch up
  const auto after = reader.get("0:q");
  EXPECT_TRUE(after.ok);  // pessimistic path serves
  // No partitions active: the reply promotes the session back (§III-B).
  EXPECT_FALSE(reader.engine().pessimistic());
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

TEST(HaPoccClusterTest, InjectedCrashClosesBlockedSessionsAndRecovers) {
  // A crash window long enough to trip the block timeout: requests parked on
  // live nodes waiting for the dead replica's stream get their sessions
  // closed; after restart the cluster drains clean.
  cluster::SimCluster cluster(ha_cluster_config());
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kCrash;
  e.at = 50'000;
  e.duration = 100'000;
  e.node = NodeId{1, 0};
  fault::FaultPlan plan;
  plan.events = {e};
  plan.horizon_us = 300'000;
  fault::FaultInjector inj(cluster, std::move(plan));
  inj.arm();

  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kGetPut;
  wl.gets_per_put = 2;
  wl.think_time_us = 2'000;
  wl.keys_per_partition = 10;
  wl.op_timeout_us = 120'000;
  cluster.add_workload_clients(2, wl);
  cluster.begin_measurement();
  cluster.run_for(300'000);
  const cluster::ClusterMetrics m = cluster.end_measurement();
  EXPECT_GT(m.completed_ops, 0u);
  EXPECT_TRUE(inj.all_cleared());

  cluster.stop_clients();
  cluster.run_for(3'000'000);
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_EQ(cluster.total_parked_requests(), 0u);
}

TEST_F(HaPoccTest, DiscardLostUpdatesPurgesDependentVersions) {
  // Received from DC1 directly: survives. A DC2 version depending on unseen
  // DC1 data: discarded.
  replicate("0:direct", 300'000, 1);
  replicate("0:dependent", 400'000, 2, VersionVector{0, 350'000, 0});
  // DC1 is lost; this node received DC1 updates only up to 300k.
  const auto discarded = server_.discard_lost_updates(1);
  EXPECT_EQ(discarded, 1u);
  EXPECT_EQ(server_.partition_store().find(K("0:direct"))->size(), 1u);
  EXPECT_EQ(server_.partition_store().find(K("0:dependent"))->size(), 0u);
}

}  // namespace
}  // namespace pocc
