// Edge cases of the shared replica machinery that the protocol-level suites
// do not isolate: idempotent replication, tie handling, degenerate
// transactions, GC corner cases, parking-lot interactions — plus
// injector-driven asymmetric-partition and crash/restart interleavings at
// the engine boundary (fault layer, src/fault/).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/sim_cluster.hpp"
#include "cure/cure_server.hpp"
#include "fault/fault_injector.hpp"
#include "pocc/pocc_server.hpp"
#include "server/engine_factory.hpp"
#include "store/key_space.hpp"
#include "test_util.hpp"

namespace pocc {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

using testutil::MockContext;
using testutil::test_topology;

class ReplicaEdgeTest : public ::testing::Test {
 protected:
  ReplicaEdgeTest()
      : server_(NodeId{0, 1}, test_topology(), protocol_, service_, ctx_) {
    ctx_.now = 1'000'000;
  }

  store::Version remote_version(const std::string& key, Timestamp ut, DcId sr,
                                VersionVector dv = VersionVector(3)) {
    store::Version v;
    v.key = K(key);
    v.value = "v@" + std::to_string(ut);
    v.sr = sr;
    v.ut = ut;
    v.dv = std::move(dv);
    return v;
  }

  MockContext ctx_;
  ProtocolConfig protocol_;
  ServiceConfig service_;
  PoccServer server_;
};

TEST_F(ReplicaEdgeTest, DuplicateReplicationIsIdempotent) {
  const auto v = remote_version("1:a", 500'000, 1);
  server_.handle_message(NodeId{1, 1}, proto::Replicate{v});
  server_.handle_message(NodeId{1, 1}, proto::Replicate{v});  // redelivery
  EXPECT_EQ(server_.partition_store().find(K("1:a"))->size(), 1u);
  EXPECT_EQ(server_.version_vector()[1], 500'000);
}

TEST_F(ReplicaEdgeTest, HeartbeatNeverRegressesVersionVector) {
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 500'000});
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 500'000});
  EXPECT_EQ(server_.version_vector()[1], 500'000);
}

TEST_F(ReplicaEdgeTest, ConcurrentTimestampTieServesLowestSr) {
  // Three DCs write the same key with the same timestamp: LWW must be total.
  for (DcId sr : {2u, 1u}) {
    server_.handle_message(NodeId{sr, 1},
                           proto::Replicate{remote_version("1:k", 700'000,
                                                           sr)});
  }
  proto::GetReq req;
  req.client = 1;
  req.key = K("1:k");
  req.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, req);
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.item.sr, 1u);
}

TEST_F(ReplicaEdgeTest, RoTxWithDuplicateKeysReturnsEachOccurrence) {
  proto::PutReq put;
  put.client = 1;
  put.key = K("1:dup");
  put.value = "x";
  put.dv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, put);
  proto::RoTxReq tx;
  tx.client = 2;
  tx.keys = {K("1:dup"), K("1:dup")};
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, tx);
  const auto replies = ctx_.replies_of<proto::RoTxReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.items.size(), 2u);
  EXPECT_EQ(replies[0].second.items[0].ut, replies[0].second.items[1].ut);
}

TEST_F(ReplicaEdgeTest, RoTxEntirelyOnRemotePartition) {
  proto::RoTxReq tx;
  tx.client = 3;
  tx.keys = {K("0:a"), K("0:b")};  // both on partition 0; coordinator is partition 1
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, tx);
  const auto slices = ctx_.sent_of<proto::SliceReq>();
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].second.keys.size(), 2u);
  // The coordinator holds the pending transaction until the slice returns.
  EXPECT_TRUE(ctx_.replies_of<proto::RoTxReply>().empty());
}

TEST_F(ReplicaEdgeTest, StaleSliceReplyForUnknownTxIsDropped) {
  proto::SliceReply stale;
  stale.tx_id = 0xdeadbeef;
  server_.handle_message(NodeId{0, 0}, stale);  // must not crash or reply
  EXPECT_TRUE(ctx_.replies.empty());
}

TEST_F(ReplicaEdgeTest, GcVectorOnEmptyStoreIsHarmless) {
  server_.handle_message(NodeId{0, 0},
                         proto::GcVector{VersionVector{1, 1, 1}});
  EXPECT_EQ(server_.partition_store().stats().gc_removed, 0u);
}

TEST_F(ReplicaEdgeTest, GcAggregatorWaitsForAllPartitions) {
  MockContext agg_ctx;
  agg_ctx.now = 1'000'000;
  PoccServer aggregator(NodeId{0, 0}, test_topology(), protocol_, service_,
                        agg_ctx);
  // Only its own report: no broadcast yet (2 partitions in the topology).
  aggregator.on_timer(server::kTimerGc);
  EXPECT_TRUE(agg_ctx.sent_of<proto::GcVector>().empty());
  aggregator.handle_message(
      NodeId{0, 1}, proto::GcReport{NodeId{0, 1}, VersionVector(3)});
  EXPECT_EQ(agg_ctx.sent_of<proto::GcVector>().size(), 1u);
}

TEST_F(ReplicaEdgeTest, ParkedGetCountsExactlyOncePerOperation) {
  server_.handle_message(
      NodeId{0, 1},
      [&] {
        proto::GetReq r;
        r.client = 1;
        r.key = K("1:x");
        r.rdv = VersionVector{0, 900'000, 0};
        return r;
      }());
  EXPECT_EQ(server_.blocking_stats().operations, 0u);  // not served yet
  ctx_.now += 1'000;
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 900'000});
  EXPECT_EQ(server_.blocking_stats().operations, 1u);
  EXPECT_EQ(server_.blocking_stats().blocked, 1u);
}

TEST_F(ReplicaEdgeTest, MultipleParkedRequestsResumeFifoOnOneEvent) {
  for (ClientId c = 1; c <= 3; ++c) {
    proto::GetReq r;
    r.client = c;
    r.key = K("1:x");
    r.rdv = VersionVector{0, 800'000, 0};
    server_.handle_message(NodeId{0, 1}, r);
  }
  EXPECT_EQ(server_.parked_requests(), 3u);
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 800'000});
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].first, 1u);
  EXPECT_EQ(replies[1].first, 2u);
  EXPECT_EQ(replies[2].first, 3u);
}

TEST_F(ReplicaEdgeTest, ResetStatsClearsBlockingAndStaleness) {
  proto::PutReq put;
  put.client = 1;
  put.key = K("1:a");
  put.value = "v";
  put.dv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, put);
  EXPECT_GT(server_.blocking_stats().operations, 0u);
  server_.reset_stats();
  EXPECT_EQ(server_.blocking_stats().operations, 0u);
  EXPECT_EQ(server_.staleness_stats().reads, 0u);
}

TEST_F(ReplicaEdgeTest, CureGetOnEmptyChainCountsNoStaleness) {
  MockContext cure_ctx;
  cure_ctx.now = 1'000'000;
  CureServer cure(NodeId{0, 0}, test_topology(), protocol_, service_,
                  cure_ctx);
  proto::GetReq req;
  req.client = 1;
  req.key = K("0:nothing");
  req.rdv = VersionVector(3);
  cure.handle_message(NodeId{0, 0}, req);
  EXPECT_EQ(cure.staleness_stats().reads, 1u);
  EXPECT_EQ(cure.staleness_stats().old_reads, 0u);
  EXPECT_EQ(cure.staleness_stats().unmerged_reads, 0u);
}

// ------------------------------------------------------------------------
// Injector-driven interleavings at the engine boundary: the cluster host
// drives real engines through crash/restart and one-directional partitions,
// asserting the engine-visible consequences (parked requests, VV catch-up,
// replication continuity) rather than end metrics only.

cluster::SimClusterConfig edge_cluster(SystemKind system) {
  cluster::SimClusterConfig cfg;
  cfg.topology.num_dcs = 3;
  cfg.topology.partitions_per_dc = 2;
  cfg.topology.partition_scheme = PartitionScheme::kPrefix;
  cfg.latency = LatencyConfig::uniform(200, 0);
  cfg.latency.inter_dc_base_us = {
      {0, 5'000, 8'000}, {5'000, 0, 6'000}, {8'000, 6'000, 0}};
  cfg.clock = ClockConfig::perfect();
  cfg.system = system;
  cfg.seed = 9;
  cfg.enable_checker = true;
  return cfg;
}

TEST(ReplicaFaultEdgeTest, AsymmetricPartitionStallsExactlyOneDirection) {
  // One-way cut dc1->dc0: dc1 keeps serving (its own writes and dc0's
  // inbound replication), dc0 serves stale reads of dc1 data until the heal
  // flush delivers the buffered stream — in order, with a clean history.
  cluster::SimCluster cluster(edge_cluster(SystemKind::kPocc));
  auto& writer = cluster.create_manual_client(1, 0);
  auto& reader = cluster.create_manual_client(0, 0);
  ASSERT_TRUE(writer.put("0:dep", "v").ok);
  cluster.network().block_link(1, 0);          // dc1 -> dc0 cut
  ASSERT_TRUE(writer.put("0:dep", "v2").ok);   // buffered toward dc0
  ASSERT_TRUE(reader.put("0:rev", "r").ok);    // dc0 -> dc1 still open
  cluster.run_for(30'000);
  EXPECT_EQ(writer.get("0:dep").value, "v2");  // dc1 sees its own write
  EXPECT_TRUE(writer.get("0:rev").found);      // reverse direction flowed
  const auto stale = reader.get("0:dep");
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.value, "v");  // dc0 still on the pre-cut version

  cluster.network().unblock_link(1, 0);
  cluster.run_for(50'000);
  EXPECT_EQ(reader.get("0:dep").value, "v2");
  EXPECT_TRUE(cluster.checker()->violations().empty());
  EXPECT_TRUE(cluster.divergent_keys().empty());
}

class ReplicaCrashRestartTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(ReplicaCrashRestartTest, CrashDuringReplicationThenRestartConverges) {
  // Writes land at two DCs while the third's replica is dead; the restart
  // must restore the victim's checkpointed state, and the backlog replay
  // must bring its store and VV level with the others.
  cluster::SimCluster cluster(edge_cluster(GetParam()));
  const NodeId victim{2, 0};
  auto& c0 = cluster.create_manual_client(0, 0);
  auto& c1 = cluster.create_manual_client(1, 0);
  ASSERT_TRUE(c0.put("0:a", "a1").ok);
  cluster.run_for(20'000);

  const VersionVector vv_before = cluster.engine(victim).version_vector();
  std::vector<store::Version> versions_before;
  for (const auto& [key, chain] :
       cluster.engine(victim).partition_store().chains()) {
    for (const store::Version& v : chain.versions()) {
      versions_before.push_back(v);
    }
  }
  ASSERT_FALSE(versions_before.empty()) << "a1 never reached the victim";

  cluster.crash_node(victim);
  ASSERT_TRUE(c0.put("0:a", "a2").ok);
  ASSERT_TRUE(c1.put("0:b", "b1").ok);
  cluster.run_for(40'000);
  // The dead replica held its pre-crash state only.
  EXPECT_EQ(cluster.engine(victim).partition_store().find(
                store::intern_key("0:b")),
            nullptr);

  const std::uint64_t recovered = cluster.restart_node(victim);
  EXPECT_GE(recovered, 2u);  // both missed writes replayed from the backlog
  // The rebuilt engine holds every pre-crash version and no lower a VV.
  const server::ReplicaBase& restarted = cluster.engine(victim);
  EXPECT_TRUE(restarted.version_vector().dominates(vv_before));
  for (const store::Version& v : versions_before) {
    const store::VersionChain* chain = restarted.partition_store().find(v.key);
    ASSERT_NE(chain, nullptr) << store::key_name(v.key);
    const auto& vs = chain->versions();
    EXPECT_TRUE(std::any_of(vs.begin(), vs.end(), [&](const store::Version& w) {
      return w.ut == v.ut && w.sr == v.sr && w.value == v.value &&
             w.dv == v.dv;
    })) << store::key_name(v.key) << " lost " << v.value << " in the restart";
  }

  cluster.run_for(50'000);
  const auto* chain =
      cluster.engine(victim).partition_store().find(store::intern_key("0:a"));
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->freshest()->value, "a2");
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, ReplicaCrashRestartTest,
                         ::testing::Values(SystemKind::kPocc,
                                           SystemKind::kCure,
                                           SystemKind::kHaPocc,
                                           SystemKind::kScalarPocc),
                         [](const ::testing::TestParamInfo<SystemKind>& p) {
                           return std::string(system_flag(p.param));
                         });

TEST(ReplicaFaultEdgeTest, CrashClearsParkedRequestsWithoutReplies) {
  // Requests parked on the victim die with its RAM: no stray replies after
  // restart, and the parking lot is empty.
  cluster::SimCluster cluster(edge_cluster(SystemKind::kPocc));
  const NodeId victim{0, 0};
  cluster.run_for(5'000);
  // Park a GET whose RDV names a future remote timestamp.
  proto::GetReq req;
  req.client = 4242;  // never registered: any reply would trip the harness
  req.key = store::intern_key("0:x");
  req.rdv = VersionVector{0, 10'000'000, 0};
  cluster.engine(victim).handle_message(victim, req);
  EXPECT_EQ(cluster.engine(victim).parked_requests(), 1u);

  cluster.crash_node(victim);
  cluster.restart_node(victim);
  EXPECT_EQ(cluster.engine(victim).parked_requests(), 0u);
  cluster.run_for(20'000);
  EXPECT_TRUE(cluster.divergent_keys().empty());
}

TEST(ReplicaFaultEdgeTest, CrashInsideAsymmetricPartitionInterleaving) {
  // Crash overlapping a one-way partition: buffered traffic toward the
  // victim flushes into its backlog (link heals first), then the restart
  // replays it — the ordering the fault injector produces routinely.
  cluster::SimCluster cluster(edge_cluster(SystemKind::kCure));
  const NodeId victim{0, 0};
  auto& writer = cluster.create_manual_client(1, 0);
  cluster.run_for(5'000);

  cluster.network().block_link(1, 0);
  cluster.crash_node(victim);
  ASSERT_TRUE(writer.put("0:k", "v").ok);  // buffered on the blocked link
  cluster.run_for(30'000);
  cluster.network().unblock_link(1, 0);  // flush lands in the crash backlog
  cluster.run_for(30'000);
  EXPECT_EQ(cluster.engine(victim).partition_store().find(
                store::intern_key("0:k")),
            nullptr);

  EXPECT_GE(cluster.restart_node(victim), 1u);
  cluster.run_for(60'000);
  ASSERT_NE(cluster.engine(victim).partition_store().find(
                store::intern_key("0:k")),
            nullptr);
  EXPECT_TRUE(cluster.divergent_keys().empty());
  EXPECT_TRUE(cluster.checker()->violations().empty());
}

TEST_F(ReplicaEdgeTest, PutClockWaitBoundaryIsStrict) {
  // Alg. 2 line 7 requires max(DV) < Clock strictly: equal is not enough.
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 2'000'000});
  proto::PutReq put;
  put.client = 1;
  put.key = K("1:a");
  put.value = "v";
  put.dv = VersionVector{0, 2'000'000, 0};  // == beyond current clock (1s)
  server_.handle_message(NodeId{0, 1}, put);
  EXPECT_TRUE(ctx_.replies_of<proto::PutReply>().empty());
  ctx_.now = 2'000'001;
  server_.on_timer(server::kTimerClockWait);
  const auto replies = ctx_.replies_of<proto::PutReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.ut, 2'000'000);
}

/// Client work for partition {0, 1} in arrival order: a GET (client 1), a
/// SliceReq from partition 0's coordinator, a PUT (client 2) and a local
/// RO-TX (client 3).
void send_client_work(server::ReplicaBase& server, std::size_t num_dcs) {
  proto::GetReq get;
  get.client = 1;
  get.key = K("1:held-get");
  get.rdv = VersionVector(num_dcs);
  server.handle_message(NodeId{0, 1}, get);
  proto::SliceReq slice;
  slice.tx_id = 77;
  slice.coordinator = NodeId{0, 0};
  slice.keys = {K("1:held-slice")};
  slice.tv = VersionVector(num_dcs);
  server.handle_message(NodeId{0, 0}, slice);
  proto::PutReq put;
  put.client = 2;
  put.key = K("1:held-put");
  put.value = "v";
  put.dv = VersionVector(num_dcs);
  server.handle_message(NodeId{0, 1}, put);
  proto::RoTxReq tx;
  tx.client = 3;
  tx.keys = {K("1:held-tx")};
  tx.rdv = VersionVector(num_dcs);
  server.handle_message(NodeId{0, 1}, tx);
}

/// Position of the first message of type T in ctx.sent.
template <typename T>
auto first_sent(const MockContext& ctx) {
  return std::find_if(ctx.sent.begin(), ctx.sent.end(), [](const auto& e) {
    return std::holds_alternative<T>(e.second);
  });
}

/// Each op of send_client_work() answered once, in arrival order.
void expect_client_work_answered(const MockContext& ctx) {
  ASSERT_EQ(ctx.replies.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<proto::GetReply>(ctx.replies[0].second));
  EXPECT_TRUE(std::holds_alternative<proto::PutReply>(ctx.replies[1].second));
  EXPECT_TRUE(std::holds_alternative<proto::RoTxReply>(ctx.replies[2].second));
  const auto slice_reply = first_sent<proto::SliceReply>(ctx);
  ASSERT_NE(slice_reply, ctx.sent.end());
  EXPECT_EQ(slice_reply->first, (NodeId{0, 0}));
  EXPECT_EQ(std::get<proto::SliceReply>(slice_reply->second).tx_id, 77u);
  // The slice arrived before the PUT, so it left before the PUT's Replicates
  // (none with one DC).
  EXPECT_LT(slice_reply, first_sent<proto::Replicate>(ctx));
}

TEST_F(ReplicaEdgeTest, HeartbeatsMuteDuringPeerRecoveryAndResumeAfter) {
  // A heartbeat promises "every update <= ts was sent"; right after a
  // crash-restart some of those sends died in flight, and broadcasting the
  // WAL-restored clock before the RecoveryDone push-back would raise peer
  // VVs past versions they never received (a causal hole). A client served
  // in that window could read state older than what it saw before the
  // crash. The gate must hold both exactly until every sibling's Done is in.
  server_.begin_peer_recovery(/*gate_us=*/500'000);
  EXPECT_TRUE(server_.recovering());
  EXPECT_EQ(ctx_.sent_of<proto::RecoveryReq>().size(), 2u);
  ctx_.clear_traffic();
  send_client_work(server_, 3);
  ctx_.now += 10'000;  // idle for 10 ms >> Δ = 1 ms: a heartbeat is due
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());
  EXPECT_FALSE(ctx_.timers.empty());  // the timer re-arms while muted
  EXPECT_TRUE(ctx_.replies.empty());
  EXPECT_TRUE(ctx_.sent_of<proto::SliceReply>().empty());

  server_.handle_message(
      NodeId{1, 1}, proto::RecoveryDone{NodeId{1, 1}, VersionVector(3)});
  ctx_.now += 10'000;
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());  // one Done missing
  EXPECT_TRUE(ctx_.replies.empty());
  EXPECT_TRUE(ctx_.sent_of<proto::SliceReply>().empty());

  ctx_.clear_traffic();
  server_.handle_message(
      NodeId{2, 1}, proto::RecoveryDone{NodeId{2, 1}, VersionVector(3)});
  EXPECT_FALSE(server_.recovering());
  EXPECT_FALSE(server_.recovery_gate_expired());
  expect_client_work_answered(ctx_);
  // The hold is not POCC blocking: every op ran unparked once released.
  EXPECT_EQ(server_.blocking_stats().operations, 4u);  // GET, PUT, 2 slices
  EXPECT_EQ(server_.blocking_stats().blocked, 0u);
  ctx_.clear_traffic();
  ctx_.now += 10'000;
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_EQ(ctx_.sent_of<proto::Heartbeat>().size(), 2u);

  // With one DC there is no sibling to wait for: nothing is held.
  TopologyConfig one_dc = test_topology();
  one_dc.num_dcs = 1;
  MockContext solo_ctx;
  solo_ctx.now = 1'000'000;
  PoccServer solo(NodeId{0, 1}, one_dc, protocol_, service_, solo_ctx);
  solo.begin_peer_recovery(/*gate_us=*/500'000);
  EXPECT_FALSE(solo.recovering());
  send_client_work(solo, 1);
  expect_client_work_answered(solo_ctx);
}

TEST_F(ReplicaEdgeTest, HeartbeatGateExpiresSoADeadPeerCannotMuteForever) {
  server_.begin_peer_recovery(/*gate_us=*/50'000);
  ctx_.clear_traffic();
  send_client_work(server_, 3);
  ctx_.now += 40'000;  // inside the gate
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());
  EXPECT_TRUE(ctx_.replies.empty());

  // Past the deadline, other traffic leaves the gate shut; the first Δ tick
  // opens it with a RecoveryDone still outstanding.
  ctx_.now += 20'000;
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 900'000});
  EXPECT_TRUE(server_.recovering());
  EXPECT_TRUE(ctx_.replies.empty());
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_FALSE(server_.recovering());
  EXPECT_TRUE(server_.recovery_gate_expired());
  expect_client_work_answered(ctx_);
  EXPECT_EQ(server_.blocking_stats().blocked, 0u);
  // The released PUT just moved VV[m]; the next idle Δ heartbeats again.
  ctx_.clear_traffic();
  ctx_.now += 10'000;
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_EQ(ctx_.sent_of<proto::Heartbeat>().size(), 2u);
}

TEST_F(ReplicaEdgeTest, RecoveryDonePushesBackOwnSuffixThePeerNeverGot) {
  // This replica's own replication stream may have holes on the PEER side:
  // Replicates that died in flight at the crash. The Done's VV tells this
  // node how far the peer really got; everything fresher of its own source
  // replica must be re-sent as tolerantly-restored RecoveryVersions.
  server_.restore_version(remote_version("1:a", 500'000, 0));
  server_.restore_version(remote_version("1:b", 900'000, 0));
  server_.begin_peer_recovery(/*gate_us=*/500'000);
  ctx_.clear_traffic();
  VersionVector peer_vv(3);
  peer_vv.raise(0, 600'000);  // the peer saw our stream through 600 ms only
  server_.handle_message(NodeId{1, 1},
                         proto::RecoveryDone{NodeId{1, 1}, peer_vv});
  const auto pushed = ctx_.sent_of<proto::RecoveryVersion>();
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0].first, (NodeId{1, 1}));
  EXPECT_EQ(pushed[0].second.version.sr, 0u);
  EXPECT_EQ(pushed[0].second.version.ut, 900'000);
  // The Done's VV is merged so replication resumes from the peer's view.
  EXPECT_EQ(server_.version_vector()[0], 900'000);
}

}  // namespace
}  // namespace pocc
