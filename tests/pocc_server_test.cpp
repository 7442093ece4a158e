// POCC engine (Alg. 2) against a MockContext: PUT path (timestamps, clock
// waits, replication), optimistic GET visibility, parking on missing
// dependencies, RO-TX snapshots, heartbeats and GC.
#include "pocc/pocc_server.hpp"

#include <gtest/gtest.h>

#include "store/key_space.hpp"
#include "test_util.hpp"

namespace pocc {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

using testutil::MockContext;
using testutil::test_topology;

class PoccServerTest : public ::testing::Test {
 protected:
  PoccServerTest()
      : server_(NodeId{0, 1}, test_topology(), protocol_, service_, ctx_) {
    ctx_.now = 1'000'000;  // physical clocks well past zero
  }

  proto::PutReq put_req(ClientId c, const std::string& key, std::string value,
                        VersionVector dv = VersionVector(3)) {
    proto::PutReq r;
    r.client = c;
    r.key = K(key);
    r.value = std::move(value);
    r.dv = std::move(dv);
    return r;
  }

  proto::GetReq get_req(ClientId c, const std::string& key,
                        VersionVector rdv = VersionVector(3)) {
    proto::GetReq r;
    r.client = c;
    r.key = K(key);
    r.rdv = std::move(rdv);
    return r;
  }

  store::Version remote_version(const std::string& key, Timestamp ut, DcId sr,
                                VersionVector dv = VersionVector(3)) {
    store::Version v;
    v.key = K(key);
    v.value = "remote";
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

TEST_F(PoccServerTest, PutCreatesVersionAndReplies) {
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "v1"));
  const auto replies = ctx_.replies_of<proto::PutReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 1u);
  EXPECT_GT(replies[0].second.ut, 0);
  EXPECT_EQ(replies[0].second.sr, 0u);
  // The version vector's local entry advanced to the new timestamp.
  EXPECT_EQ(server_.version_vector()[0], replies[0].second.ut);
  EXPECT_EQ(ctx_.series("pocc_engine_puts_total"), 1u);
}

TEST_F(PoccServerTest, PutReplicatesToSiblingReplicasOnly) {
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "v1"));
  const auto reps = ctx_.sent_of<proto::Replicate>();
  ASSERT_EQ(reps.size(), 2u);  // DCs 1 and 2, same partition index
  EXPECT_EQ(reps[0].first, (NodeId{1, 1}));
  EXPECT_EQ(reps[1].first, (NodeId{2, 1}));
  EXPECT_EQ(reps[0].second.version.key, K("1:a"));
  EXPECT_EQ(reps[0].second.version.sr, 0u);
}

TEST_F(PoccServerTest, PutTimestampExceedsDependencies) {
  // Alg. 2 line 7: wait until max(DV_c) < Clock.
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 600'000});
  VersionVector dv{0, 500'000, 0};
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "v", dv));
  const auto replies = ctx_.replies_of<proto::PutReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.ut, 500'000);
}

TEST_F(PoccServerTest, PutWithFutureDependencyParksUntilClockPasses) {
  const Timestamp future = ctx_.now + 10'000;
  // Satisfy the dependency-wait (Alg. 2 line 6) so only the clock condition
  // (line 7) keeps the request parked.
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, future});
  VersionVector dv{0, future, 0};
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "v", dv));
  EXPECT_TRUE(ctx_.replies.empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  // A clock wakeup timer was armed.
  bool has_clock_timer = false;
  for (const auto& [at, id] : ctx_.timers) {
    if (id == server::kTimerClockWait) has_clock_timer = true;
  }
  EXPECT_TRUE(has_clock_timer);
  // Advance past the dependency and fire the wakeup.
  ctx_.now = future + 10;
  server_.on_timer(server::kTimerClockWait);
  const auto replies = ctx_.replies_of<proto::PutReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.ut, future);
  EXPECT_GT(replies[0].second.blocked_us, 0);
}

TEST_F(PoccServerTest, PutWithUnsatisfiedRemoteDependencyParks) {
  // put_dependency_wait is on (§V-A): a dependency *ahead* of the local VV
  // but behind the clock parks on the VV condition (Alg. 2 line 6) and is
  // resumed by replication.
  VersionVector dv{0, 900'000, 0};
  server_.handle_message(NodeId{0, 1}, put_req(2, "1:b", "w", dv));
  EXPECT_TRUE(ctx_.replies_of<proto::PutReply>().empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  server_.handle_message(NodeId{1, 1},
                         proto::Replicate{remote_version("1:zzz", 900'000, 1)});
  ASSERT_EQ(ctx_.replies_of<proto::PutReply>().size(), 1u);
  EXPECT_EQ(server_.parked_requests(), 0u);
}

TEST_F(PoccServerTest, GetReturnsFreshestVersionEvenIfUnstable) {
  // An unstable remote version (dependencies not received) is still returned:
  // that is the optimism of OCC (§III-A).
  VersionVector dv{0, 0, 777'777};  // depends on DC2 data we do not have
  server_.handle_message(NodeId{1, 1},
                         proto::Replicate{remote_version("1:a", 950'000, 1, dv)});
  server_.handle_message(NodeId{0, 1}, get_req(5, "1:a"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].second.item.found);
  EXPECT_EQ(replies[0].second.item.ut, 950'000);
  EXPECT_EQ(replies[0].second.item.fresher_versions, 0u);
  EXPECT_EQ(replies[0].second.blocked_us, 0);
}

TEST_F(PoccServerTest, GetUnknownKeyReturnsImplicitInitialVersion) {
  server_.handle_message(NodeId{0, 1}, get_req(5, "1:never-written"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].second.item.found);
  EXPECT_EQ(replies[0].second.item.ut, 0);
}

TEST_F(PoccServerTest, GetBlocksOnMissingRemoteDependency) {
  // Alg. 2 line 2: RDV[1] ahead of VV[1] — the server must stall.
  server_.handle_message(NodeId{0, 1},
                         get_req(5, "1:a", VersionVector{0, 500'000, 0}));
  EXPECT_TRUE(ctx_.replies.empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  // The missing dependency arrives (heartbeat raises VV[1]) 5 ms later.
  ctx_.now += 5'000;
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 600'000});
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.blocked_us, 0);
  EXPECT_EQ(ctx_.series("pocc_engine_blocked_total"), 1u);
}

TEST_F(PoccServerTest, GetIgnoresLocalEntryOfRdv) {
  // Local dependencies are trivially satisfied (Alg. 2 line 2: i != m).
  server_.handle_message(
      NodeId{0, 1}, get_req(5, "1:a", VersionVector{999'999'999, 0, 0}));
  EXPECT_EQ(ctx_.replies_of<proto::GetReply>().size(), 1u);
}

TEST_F(PoccServerTest, ReplicateAdvancesVersionVector) {
  server_.handle_message(NodeId{1, 1},
                         proto::Replicate{remote_version("1:a", 300'000, 1)});
  EXPECT_EQ(server_.version_vector()[1], 300'000);
  server_.handle_message(NodeId{1, 1},
                         proto::Replicate{remote_version("1:b", 400'000, 1)});
  EXPECT_EQ(server_.version_vector()[1], 400'000);
}

TEST_F(PoccServerTest, HeartbeatAdvancesVersionVector) {
  server_.handle_message(NodeId{2, 1}, proto::Heartbeat{2, 123'456});
  EXPECT_EQ(server_.version_vector()[2], 123'456);
}

TEST_F(PoccServerTest, HeartbeatTimerBroadcastsWhenIdle) {
  server_.start();
  ctx_.clear_traffic();
  ctx_.now += 10'000;  // idle for 10 ms >> Δ = 1 ms
  server_.on_timer(server::kTimerHeartbeat);
  const auto hbs = ctx_.sent_of<proto::Heartbeat>();
  ASSERT_EQ(hbs.size(), 2u);
  EXPECT_EQ(hbs[0].first, (NodeId{1, 1}));
  EXPECT_EQ(hbs[1].first, (NodeId{2, 1}));
  EXPECT_EQ(hbs[0].second.src_dc, 0u);
  EXPECT_GT(hbs[0].second.ts, 0);
  // VV[m] advanced to the broadcast clock value.
  EXPECT_EQ(server_.version_vector()[0], hbs[0].second.ts);
  EXPECT_EQ(
      ctx_.series("pocc_engine_heartbeats_total", {{"kind", "timer"}}), 1u);
}

TEST_F(PoccServerTest, HeartbeatSuppressedAfterRecentPut) {
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "v"));
  ctx_.clear_traffic();
  // Less than Δ since the put advanced VV[m].
  server_.on_timer(server::kTimerHeartbeat);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());
}

TEST_F(PoccServerTest, LwwOrderAppliedOnConcurrentWrites) {
  // Two concurrent versions with the same timestamp: lowest sr wins (§IV-B).
  server_.handle_message(NodeId{1, 1},
                         proto::Replicate{remote_version("1:k", 500'000, 1)});
  store::Version v2 = remote_version("1:k", 500'000, 2);
  v2.value = "from-dc2";
  server_.handle_message(NodeId{2, 1}, proto::Replicate{v2});
  server_.handle_message(NodeId{0, 1}, get_req(5, "1:k"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.item.sr, 1u);  // lower sr wins the tie
}

TEST_F(PoccServerTest, RoTxSinglePartitionLocal) {
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:a", "va"));
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:b", "vb"));
  ctx_.clear_traffic();
  proto::RoTxReq tx;
  tx.client = 9;
  tx.keys = {K("1:a"), K("1:b")};
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, tx);
  const auto replies = ctx_.replies_of<proto::RoTxReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.items.size(), 2u);
  // TV = max(VV, RDV) (Alg. 2 line 32).
  EXPECT_EQ(replies[0].second.tv, server_.version_vector());
}

TEST_F(PoccServerTest, RoTxFansOutSliceRequests) {
  proto::RoTxReq tx;
  tx.client = 9;
  tx.keys = {K("0:x"), K("1:y")};  // partition 0 remote, partition 1 local
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 1}, tx);
  const auto slices = ctx_.sent_of<proto::SliceReq>();
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].first, (NodeId{0, 0}));  // same DC, partition 0
  EXPECT_EQ(slices[0].second.keys, std::vector<KeyId>{K("0:x")});
  EXPECT_EQ(slices[0].second.coordinator, (NodeId{0, 1}));
  // No reply yet: awaiting the remote slice.
  EXPECT_TRUE(ctx_.replies_of<proto::RoTxReply>().empty());

  proto::SliceReply sr;
  sr.tx_id = slices[0].second.tx_id;
  proto::ReadItem item;
  item.key = K("0:x");
  item.found = false;
  item.dv = VersionVector(3);
  sr.items = {item};
  server_.handle_message(NodeId{0, 0}, sr);
  const auto replies = ctx_.replies_of<proto::RoTxReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.items.size(), 2u);
}

TEST_F(PoccServerTest, SliceWaitsUntilVvCoversSnapshot) {
  proto::SliceReq slice;
  slice.tx_id = 42;
  slice.coordinator = NodeId{0, 0};
  slice.keys = {K("1:a")};
  slice.tv = VersionVector{0, 800'000, 0};  // ahead of VV[1]
  server_.handle_message(NodeId{0, 0}, slice);
  EXPECT_TRUE(ctx_.sent_of<proto::SliceReply>().empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  ctx_.now += 2'000;
  server_.handle_message(NodeId{1, 1}, proto::Heartbeat{1, 900'000});
  // Still parked: TV[0] (local) and TV[2] must also be covered; they are 0.
  const auto replies = ctx_.sent_of<proto::SliceReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.blocked_us, 0);
}

TEST_F(PoccServerTest, SliceOnTheLocalEntryIsServedOnceTheClockPassesIt) {
  // TV[0] (this DC) is ahead of VV[0]: no PUT or heartbeat raised it. A
  // clock reading at or past TV[0] covers it — every later local version is
  // stamped past that reading — so the slice is served without parking,
  // and VV[0] is left alone (it still drives the idle heartbeat).
  const Timestamp tv_local = ctx_.now - 10;
  proto::SliceReq slice;
  slice.tx_id = 44;
  slice.coordinator = NodeId{0, 0};
  slice.keys = {K("1:a")};
  slice.tv = VersionVector{tv_local, 0, 0};
  server_.handle_message(NodeId{0, 0}, slice);
  const auto replies = ctx_.sent_of<proto::SliceReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.blocked_us, 0);
  EXPECT_EQ(server_.parked_requests(), 0u);
  EXPECT_EQ(server_.version_vector()[0], 0);
}

TEST_F(PoccServerTest, SliceAheadOfTheClockParksUntilTheClockWakeup) {
  const Timestamp tv_local = ctx_.now + 5'000;
  proto::SliceReq slice;
  slice.tx_id = 45;
  slice.coordinator = NodeId{0, 0};
  slice.keys = {K("1:a")};
  slice.tv = VersionVector{tv_local, 0, 0};
  server_.handle_message(NodeId{0, 0}, slice);
  EXPECT_TRUE(ctx_.sent_of<proto::SliceReply>().empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  bool has_clock_timer = false;
  for (const auto& [at, id] : ctx_.timers) {
    if (id == server::kTimerClockWait) has_clock_timer = true;
  }
  ASSERT_TRUE(has_clock_timer);
  ctx_.now = tv_local + 1;
  server_.on_timer(server::kTimerClockWait);
  const auto replies = ctx_.sent_of<proto::SliceReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GT(replies[0].second.blocked_us, 0);
  EXPECT_EQ(server_.parked_requests(), 0u);
}

TEST_F(PoccServerTest, PromiseHeartbeatSendsTheSharedTimestamp) {
  // A sibling's VV[0] is at `ts`; this partition promises the same ts once
  // its own clock is there, and never while the clock is behind it.
  const Timestamp ahead = ctx_.now + 1'000;
  server_.promise_heartbeat(ahead);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());
  EXPECT_EQ(server_.version_vector()[0], 0);

  const Timestamp ts = ctx_.now - 5;
  server_.promise_heartbeat(ts);
  const auto hbs = ctx_.sent_of<proto::Heartbeat>();
  ASSERT_EQ(hbs.size(), 2u);  // DCs 1 and 2, same partition index
  EXPECT_EQ(hbs[0].first, (NodeId{1, 1}));
  EXPECT_EQ(hbs[1].first, (NodeId{2, 1}));
  EXPECT_EQ(hbs[0].second.src_dc, 0u);
  EXPECT_EQ(hbs[0].second.ts, ts);
  EXPECT_EQ(server_.version_vector()[0], ts);
  EXPECT_EQ(ctx_.series("pocc_engine_heartbeats_total", {{"kind", "pass"}}),
            1u);
  EXPECT_EQ(
      ctx_.series("pocc_engine_heartbeats_total", {{"kind", "timer"}}), 0u);

  // VV[0] already covers ts: nothing more to promise.
  ctx_.clear_traffic();
  server_.promise_heartbeat(ts);
  EXPECT_TRUE(ctx_.sent_of<proto::Heartbeat>().empty());
}

TEST_F(PoccServerTest, SliceVisibilityFiltersBySnapshot) {
  // Version with dv beyond TV must be invisible (Alg. 2 line 43).
  VersionVector dv_low(3);
  VersionVector dv_high{0, 0, 999'999'999};
  server_.handle_message(
      NodeId{1, 1}, proto::Replicate{remote_version("1:k", 500'000, 1, dv_low)});
  server_.handle_message(
      NodeId{1, 1},
      proto::Replicate{remote_version("1:k", 600'000, 1, dv_high)});

  proto::SliceReq slice;
  slice.tx_id = 43;
  slice.coordinator = NodeId{0, 0};
  slice.keys = {K("1:k")};
  slice.tv = server_.version_vector();
  server_.handle_message(NodeId{0, 0}, slice);
  const auto replies = ctx_.sent_of<proto::SliceReply>();
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].second.items.size(), 1u);
  const proto::ReadItem& item = replies[0].second.items[0];
  EXPECT_EQ(item.ut, 500'000);          // the 600k version is outside TV
  EXPECT_EQ(item.fresher_versions, 1u);  // ...and counted as fresher
}

TEST_F(PoccServerTest, BlockingStatsCountAllOperations) {
  server_.handle_message(NodeId{0, 1}, get_req(1, "1:a"));
  server_.handle_message(NodeId{0, 1}, put_req(1, "1:b", "v"));
  EXPECT_EQ(ctx_.series("pocc_engine_blocking_ops_total"), 2u);
  EXPECT_EQ(ctx_.series("pocc_engine_blocked_total"), 0u);
}

TEST_F(PoccServerTest, VersionObserverFiresOnPut) {
  ClientId observed_client = 0;
  KeyId observed_key = kInvalidKeyId;
  server_.set_version_observer(
      [&](ClientId c, std::uint64_t op_id, const store::Version& v) {
        (void)op_id;
        observed_client = c;
        observed_key = v.key;
      });
  server_.handle_message(NodeId{0, 1}, put_req(77, "1:obs", "v"));
  EXPECT_EQ(observed_client, 77u);
  EXPECT_EQ(observed_key, K("1:obs"));
}

}  // namespace
}  // namespace pocc
