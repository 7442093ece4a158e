// Online causal-consistency checker: clean histories pass; violations of
// read-your-writes, monotonic reads, cross-key causal chains, the RO-TX
// snapshot rule, Alg. 1 conformance and Prop. 2 are detected.
#include "checker/history_checker.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <random>
#include <vector>

#include "client/client_engine.hpp"
#include "store/key_space.hpp"

namespace pocc::checker {
namespace {

/// Tests name keys as strings; the checker runs on interned ids.
KeyId K(const std::string& key) { return store::intern_key(key); }

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : chk_(3) {
    chk_.register_client(1, 0);
    chk_.register_client(2, 1);
  }

  /// Simulate a full PUT by client `c` (issue + server-side creation + reply).
  proto::PutReply do_put(ClientId c, const std::string& key, Timestamp ut,
                         DcId sr, const VersionVector& dv) {
    proto::PutReq req;
    req.client = c;
    req.key = K(key);
    req.value = "v";
    req.dv = dv;
    chk_.on_put_issued(c, req);
    chk_.on_version_created(c, req.op_id, K(key), ut, sr, dv);
    proto::PutReply reply;
    reply.client = c;
    reply.key = K(key);
    reply.ut = ut;
    reply.sr = sr;
    chk_.on_put_reply(c, reply);
    return reply;
  }

  proto::GetReply make_get_reply(ClientId c, const std::string& key,
                                 Timestamp ut, DcId sr,
                                 const VersionVector& dv) {
    proto::GetReply r;
    r.client = c;
    r.item.key = K(key);
    r.item.found = true;
    r.item.ut = ut;
    r.item.sr = sr;
    r.item.dv = dv;
    return r;
  }

  void do_get(ClientId c, const std::string& key, const VersionVector& rdv,
              const proto::GetReply& reply) {
    proto::GetReq req;
    req.client = c;
    req.key = K(key);
    req.rdv = rdv;
    chk_.on_get_issued(c, req);
    chk_.on_get_reply(c, reply);
  }

  HistoryChecker chk_;
};

TEST_F(CheckerTest, CleanHistoryHasNoViolations) {
  const auto put = do_put(1, "k", 100, 0, VersionVector(3));
  do_get(1, "k", VersionVector(3),
         make_get_reply(1, "k", put.ut, put.sr, VersionVector(3)));
  EXPECT_TRUE(chk_.violations().empty());
  EXPECT_GT(chk_.checks_performed(), 0u);
  EXPECT_EQ(chk_.versions_registered(), 1u);
}

TEST_F(CheckerTest, ReadYourWritesViolationDetected) {
  do_put(1, "k", 100, 0, VersionVector(3));
  // The same client then reads an *older* version of k: violation.
  // (The RDV is still zero: writes do not raise it, Alg. 1.)
  proto::GetReply stale = make_get_reply(1, "k", 0, 0, VersionVector(3));
  stale.item.found = false;  // implicit initial version
  do_get(1, "k", VersionVector(3), stale);
  ASSERT_FALSE(chk_.violations().empty());
  EXPECT_NE(chk_.violations()[0].find("causal GET rule"), std::string::npos);
}

TEST_F(CheckerTest, MonotonicReadsViolationDetected) {
  // Another client's write.
  do_put(2, "k", 200, 1, VersionVector(3));
  // Client 1 reads the fresh version, then an older one: violation.
  do_get(1, "k", VersionVector(3),
         make_get_reply(1, "k", 200, 1, VersionVector(3)));
  proto::GetReply stale = make_get_reply(1, "k", 0, 0, VersionVector(3));
  stale.item.found = false;
  do_get(1, "k", VersionVector(3), stale);
  EXPECT_FALSE(chk_.violations().empty());
}

TEST_F(CheckerTest, CausalChainThroughAnotherKeyDetected) {
  // Client 2 writes X of x, reads it, then writes Y of y (so X is in Y's
  // causal past). Client 1 reads Y, then reads an older version of x.
  do_put(2, "x", 100, 1, VersionVector(3));
  do_get(2, "x", VersionVector(3),
         make_get_reply(2, "x", 100, 1, VersionVector(3)));
  do_put(2, "y", 150, 1, VersionVector{0, 100, 0});

  do_get(1, "y", VersionVector(3),
         make_get_reply(1, "y", 150, 1, VersionVector{0, 100, 0}));
  EXPECT_TRUE(chk_.violations().empty());
  proto::GetReply stale_x = make_get_reply(1, "x", 0, 0, VersionVector(3));
  stale_x.item.found = false;
  do_get(1, "x", VersionVector{0, 100, 0}, stale_x);
  ASSERT_FALSE(chk_.violations().empty());
}

TEST_F(CheckerTest, FreshReadAfterCausalChainIsClean) {
  do_put(2, "x", 100, 1, VersionVector(3));
  do_get(2, "x", VersionVector(3),
         make_get_reply(2, "x", 100, 1, VersionVector(3)));
  do_put(2, "y", 150, 1, VersionVector{0, 100, 0});
  do_get(1, "y", VersionVector(3),
         make_get_reply(1, "y", 150, 1, VersionVector{0, 100, 0}));
  // Reading x at its causal-past version (or fresher) is fine.
  do_get(1, "x", VersionVector{0, 100, 0},
         make_get_reply(1, "x", 100, 1, VersionVector(3)));
  EXPECT_TRUE(chk_.violations().empty());
}

TEST_F(CheckerTest, Alg1ConformanceMismatchDetected) {
  // A GET carrying an RDV that diverges from the mirrored Algorithm 1 state.
  proto::GetReq req;
  req.client = 1;
  req.key = K("k");
  req.rdv = VersionVector{9, 9, 9};  // client never read anything
  chk_.on_get_issued(1, req);
  ASSERT_FALSE(chk_.violations().empty());
  EXPECT_NE(chk_.violations()[0].find("Alg1"), std::string::npos);
}

TEST_F(CheckerTest, Prop2ViolationDetected) {
  // ut must strictly exceed every dv entry.
  chk_.on_version_created(1, 0, K("k"), 100, 0, VersionVector{0, 150, 0});
  ASSERT_FALSE(chk_.violations().empty());
  EXPECT_NE(chk_.violations()[0].find("Prop2"), std::string::npos);
}

TEST_F(CheckerTest, TxSnapshotViolationDetected) {
  // Build X(100) -> X''(200) -> Y(300): Y's past contains x@200.
  do_put(2, "x", 100, 1, VersionVector(3));
  do_put(2, "x", 200, 1, VersionVector{0, 100, 0});
  do_put(2, "y", 300, 1, VersionVector{0, 200, 0});

  // A transaction returning Y together with the *old* x@100 breaks the
  // snapshot property.
  proto::RoTxReq req;
  req.client = 1;
  req.keys = {K("x"), K("y")};
  req.rdv = VersionVector(3);
  chk_.on_tx_issued(1, req);
  proto::RoTxReply reply;
  reply.client = 1;
  proto::ReadItem x;
  x.key = K("x");
  x.found = true;
  x.ut = 100;
  x.sr = 1;
  x.dv = VersionVector(3);
  proto::ReadItem y;
  y.key = K("y");
  y.found = true;
  y.ut = 300;
  y.sr = 1;
  y.dv = VersionVector{0, 200, 0};
  reply.items = {x, y};
  chk_.on_tx_reply(1, reply);
  ASSERT_FALSE(chk_.violations().empty());
  EXPECT_NE(chk_.violations()[0].find("RO-TX snapshot"), std::string::npos);
}

TEST_F(CheckerTest, ConsistentTxSnapshotIsClean) {
  do_put(2, "x", 100, 1, VersionVector(3));
  do_put(2, "x", 200, 1, VersionVector{0, 100, 0});
  do_put(2, "y", 300, 1, VersionVector{0, 200, 0});
  proto::RoTxReq req;
  req.client = 1;
  req.keys = {K("x"), K("y")};
  req.rdv = VersionVector(3);
  chk_.on_tx_issued(1, req);
  proto::RoTxReply reply;
  reply.client = 1;
  proto::ReadItem x;
  x.key = K("x");
  x.found = true;
  x.ut = 200;
  x.sr = 1;
  x.dv = VersionVector{0, 100, 0};
  proto::ReadItem y;
  y.key = K("y");
  y.found = true;
  y.ut = 300;
  y.sr = 1;
  y.dv = VersionVector{0, 200, 0};
  reply.items = {x, y};
  chk_.on_tx_reply(1, reply);
  EXPECT_TRUE(chk_.violations().empty());
}

TEST_F(CheckerTest, SessionResetForgetsCausalPast) {
  do_put(1, "k", 100, 0, VersionVector(3));
  chk_.on_session_reset(1);
  // After the HA reset, reading an old version of k is permitted (§III-B).
  proto::GetReply stale = make_get_reply(1, "k", 0, 0, VersionVector(3));
  stale.item.found = false;
  do_get(1, "k", VersionVector(3), stale);
  EXPECT_TRUE(chk_.violations().empty());
}

TEST_F(CheckerTest, ConcurrentWritesAreNotViolations) {
  // Two clients write the same key concurrently; each reading its own write
  // is consistent even though LWW will eventually pick one winner.
  do_put(1, "k", 100, 0, VersionVector(3));
  do_put(2, "k", 100, 1, VersionVector(3));  // same ut, different sr
  // Client 2 reads its own write: version (100, sr=1). Client 1's write
  // (100, sr=0) is fresher in LWW order but NOT in client 2's causal past.
  do_get(2, "k", VersionVector(3),
         make_get_reply(2, "k", 100, 1, VersionVector(3)));
  EXPECT_TRUE(chk_.violations().empty());
}

/// Resident set size in bytes (second field of /proc/self/statm, in pages).
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

TEST(CheckerMemoryTest, PutsDoNotCopyTheWritersPast) {
  // A generated history over one linearizable store: a few sessions spread
  // over the DCs, a few thousand keys, tens of thousands of PUTs and reads
  // of each other's writes, so every session's causal past soon spans most
  // keys. What the checker keeps per PUT must not grow with that past.
  constexpr std::uint32_t kDcs = 3;
  constexpr ClientId kSessions = 6;
  constexpr std::uint32_t kKeys = 4000;
  constexpr int kPuts = 40'000;
  constexpr std::size_t kMaxGrowth = std::size_t{64} << 20;

  HistoryChecker chk(kDcs);
  std::vector<client::ClientEngine> engines;
  for (ClientId c = 0; c < kSessions; ++c) {
    engines.emplace_back(c, c % kDcs, kDcs);
    chk.register_client(c, c % kDcs);
  }
  std::vector<KeyId> keys;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    keys.push_back(K("mem-" + std::to_string(k)));
  }
  struct Latest {
    Timestamp ut = 0;
    DcId sr = 0;
    VersionVector dv;
  };
  std::vector<std::optional<Latest>> latest(kKeys);

  std::mt19937_64 rng(7);
  Timestamp clock = 0;
  std::uint64_t op_id = 0;
  const std::size_t rss_before = resident_bytes();
  for (int puts = 0; puts < kPuts;) {
    const ClientId c = rng() % kSessions;
    client::ClientEngine& e = engines[c];
    const std::uint32_t k = rng() % kKeys;
    if (rng() % 3 == 0) {
      proto::PutReq req = e.make_put(keys[k], "v");
      req.op_id = ++op_id;
      chk.on_put_issued(c, req);
      const Timestamp ut = ++clock;  // exceeds every dependency so far
      chk.on_version_created(c, req.op_id, keys[k], ut, e.dc(), req.dv);
      proto::PutReply reply;
      reply.client = c;
      reply.op_id = req.op_id;
      reply.key = keys[k];
      reply.ut = ut;
      reply.sr = e.dc();
      chk.on_put_reply(c, reply);
      e.absorb_put(reply);
      latest[k] = Latest{ut, e.dc(), req.dv};
      if (++puts % 1000 == 0) {
        const std::size_t grown = resident_bytes() - rss_before;
        ASSERT_LT(grown, kMaxGrowth) << "resident set grew " << (grown >> 20)
                                     << " MB after " << puts << " PUTs";
      }
    } else {
      proto::GetReq req = e.make_get(keys[k]);
      req.op_id = ++op_id;
      chk.on_get_issued(c, req);
      proto::GetReply reply;
      reply.client = c;
      reply.op_id = req.op_id;
      reply.item.key = keys[k];
      if (latest[k]) {
        reply.item.found = true;
        reply.item.ut = latest[k]->ut;
        reply.item.sr = latest[k]->sr;
        reply.item.dv = latest[k]->dv;
      }
      chk.on_get_reply(c, reply);
      e.absorb_get(reply);
    }
  }
  EXPECT_TRUE(chk.violations().empty()) << chk.violations().front();
  EXPECT_EQ(chk.versions_registered(), static_cast<std::uint64_t>(kPuts));
}

}  // namespace
}  // namespace pocc::checker
