// Cure* engine: GSS stabilization (aggregate min, monotone), pessimistic
// visibility (remote versions hidden until stable), stable-version GETs.
#include "cure/cure_server.hpp"

#include <gtest/gtest.h>

#include "store/key_space.hpp"
#include "test_util.hpp"

namespace pocc {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

using testutil::MockContext;
using testutil::test_topology;

class CureServerTest : public ::testing::Test {
 protected:
  CureServerTest()
      : server_(NodeId{0, 0}, test_topology(), protocol_, service_, ctx_) {
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

  proto::GetReq get_req(ClientId c, const std::string& key,
                        VersionVector rdv = VersionVector(3)) {
    proto::GetReq r;
    r.client = c;
    r.key = K(key);
    r.rdv = std::move(rdv);
    return r;
  }

  /// Run one stabilization round with the sibling partition reporting `vv`.
  void stabilize_with_sibling(const VersionVector& vv) {
    server_.on_timer(server::kTimerStabilization);  // own report (aggregator)
    server_.handle_message(NodeId{0, 1}, proto::StabReport{NodeId{0, 1}, vv});
  }

  MockContext ctx_;
  ProtocolConfig protocol_;
  ServiceConfig service_;
  CureServer server_;
};

TEST_F(CureServerTest, GssStartsAtZero) {
  EXPECT_EQ(server_.gss(), VersionVector(3));
}

TEST_F(CureServerTest, StabilizationComputesAggregateMinimum) {
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:a", 700'000, 1)});
  server_.handle_message(NodeId{2, 0}, proto::Heartbeat{2, 400'000});
  // Sibling has seen less from DC1.
  stabilize_with_sibling(VersionVector{0, 500'000, 450'000});
  // GSS = entry-wise min over the DC's version vectors.
  EXPECT_EQ(server_.gss()[1], 500'000);
  EXPECT_EQ(server_.gss()[2], 400'000);
  // The GSS is broadcast to the sibling partition.
  const auto bcasts = ctx_.sent_of<proto::GssBroadcast>();
  ASSERT_EQ(bcasts.size(), 1u);
  EXPECT_EQ(bcasts[0].first, (NodeId{0, 1}));
}

TEST_F(CureServerTest, GssIsMonotonePerNode) {
  server_.handle_message(NodeId{0, 1},
                         proto::GssBroadcast{VersionVector{0, 500, 500}});
  server_.handle_message(NodeId{0, 1},
                         proto::GssBroadcast{VersionVector{0, 300, 800}});
  EXPECT_EQ(server_.gss(), (VersionVector{0, 500, 800}));
}

TEST_F(CureServerTest, GetHidesUnstableRemoteVersion) {
  // Fresh remote version, GSS has not caught up: Cure* must not expose it.
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:a", 900'000, 1)});
  server_.handle_message(NodeId{0, 0}, get_req(1, "0:a"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  // Falls back to the implicit initial version...
  EXPECT_FALSE(replies[0].second.item.found);
  // ...and the read is both old and unmerged (§V-B definitions).
  EXPECT_EQ(replies[0].second.item.fresher_versions, 1u);
  EXPECT_EQ(replies[0].second.item.unmerged_versions, 1u);
  EXPECT_EQ(ctx_.series("pocc_engine_old_reads_total"), 1u);
  EXPECT_EQ(ctx_.series("pocc_engine_unmerged_reads_total"), 1u);
}

TEST_F(CureServerTest, GetExposesVersionOnceStable) {
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:a", 900'000, 1)});
  stabilize_with_sibling(VersionVector{0, 950'000, 0});
  server_.handle_message(NodeId{0, 0}, get_req(1, "0:a"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].second.item.found);
  EXPECT_EQ(replies[0].second.item.ut, 900'000);
  EXPECT_EQ(replies[0].second.item.fresher_versions, 0u);
}

TEST_F(CureServerTest, StabilityRequiresDependenciesBelowGss) {
  // Version received AND its own timestamp below GSS[sr], but with a
  // dependency above the GSS: still unstable (cv(d) <= GSS fails).
  VersionVector dv{0, 0, 800'000};
  server_.handle_message(
      NodeId{1, 0}, proto::Replicate{remote_version("0:a", 500'000, 1, dv)});
  stabilize_with_sibling(VersionVector{0, 600'000, 100'000});
  server_.handle_message(NodeId{0, 0}, get_req(1, "0:a"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].second.item.found);
}

TEST_F(CureServerTest, LocalVersionsAlwaysVisible) {
  proto::PutReq put;
  put.client = 1;
  put.key = K("0:local");
  put.value = "mine";
  put.dv = VersionVector(3);
  server_.handle_message(NodeId{0, 0}, put);
  server_.handle_message(NodeId{0, 0}, get_req(1, "0:local"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].second.item.found);
  EXPECT_EQ(replies[0].second.item.value, "mine");
}

TEST_F(CureServerTest, GetWaitsForGssToCoverRdv) {
  server_.handle_message(NodeId{0, 0},
                         get_req(1, "0:a", VersionVector{0, 700'000, 0}));
  EXPECT_TRUE(ctx_.replies.empty());
  EXPECT_EQ(server_.parked_requests(), 1u);
  // Replication alone is not enough for Cure*: the GSS must advance.
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:zz", 800'000, 1)});
  EXPECT_TRUE(ctx_.replies.empty());
  stabilize_with_sibling(VersionVector{0, 800'000, 0});
  EXPECT_EQ(ctx_.replies_of<proto::GetReply>().size(), 1u);
}

TEST_F(CureServerTest, ChainSearchReturnsFreshestStable) {
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:k", 100'000, 1)});
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:k", 200'000, 1)});
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:k", 900'000, 1)});
  stabilize_with_sibling(VersionVector{0, 250'000, 0});
  ctx_.clear_traffic();
  server_.handle_message(NodeId{0, 0}, get_req(1, "0:k"));
  const auto replies = ctx_.replies_of<proto::GetReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].second.item.ut, 200'000);  // freshest stable
  EXPECT_EQ(replies[0].second.item.fresher_versions, 1u);
  EXPECT_EQ(replies[0].second.item.unmerged_versions, 1u);
}

TEST_F(CureServerTest, TxSnapshotBoundedByGss) {
  server_.handle_message(NodeId{1, 0},
                         proto::Replicate{remote_version("0:k", 900'000, 1)});
  stabilize_with_sibling(VersionVector{0, 300'000, 0});
  proto::RoTxReq tx;
  tx.client = 5;
  tx.keys = {K("0:k")};
  tx.rdv = VersionVector(3);
  ctx_.clear_traffic();
  server_.handle_message(NodeId{0, 0}, tx);
  const auto replies = ctx_.replies_of<proto::RoTxReply>();
  ASSERT_EQ(replies.size(), 1u);
  // Remote entries come from the GSS, not the VV: the 900k version invisible.
  EXPECT_LE(replies[0].second.tv[1], 300'000);
  ASSERT_EQ(replies[0].second.items.size(), 1u);
  EXPECT_FALSE(replies[0].second.items[0].found);
}

TEST_F(CureServerTest, TxSnapshotLocalEntryFollowsVv) {
  proto::PutReq put;
  put.client = 1;
  put.key = K("0:mine");
  put.value = "fresh-local";
  put.dv = VersionVector(3);
  server_.handle_message(NodeId{0, 0}, put);
  proto::RoTxReq tx;
  tx.client = 5;
  tx.keys = {K("0:mine")};
  tx.rdv = VersionVector(3);
  ctx_.clear_traffic();
  server_.handle_message(NodeId{0, 0}, tx);
  const auto replies = ctx_.replies_of<proto::RoTxReply>();
  ASSERT_EQ(replies.size(), 1u);
  // Local items are always visible in Cure (§IV-C): the local snapshot entry
  // tracks the VV, so the fresh local write is returned.
  ASSERT_EQ(replies[0].second.items.size(), 1u);
  EXPECT_TRUE(replies[0].second.items[0].found);
  EXPECT_EQ(replies[0].second.items[0].value, "fresh-local");
}

TEST_F(CureServerTest, StartArmsStabilizationTimer) {
  server_.start();
  bool has_stab_timer = false;
  for (const auto& [at, id] : ctx_.timers) {
    if (id == server::kTimerStabilization) has_stab_timer = true;
  }
  EXPECT_TRUE(has_stab_timer);
}

TEST_F(CureServerTest, NonAggregatorSendsReportToPartitionZero) {
  MockContext ctx2;
  ctx2.now = 1'000'000;
  CureServer other(NodeId{0, 1}, test_topology(), protocol_, service_, ctx2);
  other.on_timer(server::kTimerStabilization);
  const auto reports = ctx2.sent_of<proto::StabReport>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first, (NodeId{0, 0}));
}

}  // namespace
}  // namespace pocc
