// rt::NodeGroup: several partition engines of one DC pinned onto workers
// behind per-worker MPSC inboxes (ctest label `concurrency`; runs under
// ThreadSanitizer in CI). The group spawns no threads: a WorkerDriver below
// plays the TCP transport's part, one test-owned thread per worker calling
// service(w) on every wake and timer deadline.
//
// A single-DC topology makes the routing seam fully observable: with no
// remote replicas, NOTHING may leave the group through Router::route — every
// cross-partition message (RO-TX slices, GC reports, loopbacks) must be an
// in-process queue push. The pass-promise cases at the end host one DC of a
// 3-DC topology and capture what each pass routes to the peer DCs; the
// client-retry cases reuse that group to drive copies of client requests
// into a slot's exactly-once entry.
#include "runtime/node_group.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pocc/pocc_server.hpp"
#include "runtime/placement.hpp"
#include "store/key_space.hpp"

namespace pocc::rt {
namespace {

/// Thread-safe Router double: collects client replies, flags any external
/// server-to-server route (illegal in a 1-DC group).
class RecordingRouter final : public Router {
 public:
  void route(NodeId /*from*/, NodeId /*to*/, proto::Message /*m*/) override {
    ++external_routes_;
  }
  void route_to_client(NodeId /*from*/, ClientId client,
                       proto::Message m) override {
    {
      std::lock_guard lk(mu_);
      replies_.emplace_back(client, std::move(m));
    }
    cv_.notify_all();
  }

  /// Wait until `n` client replies arrived (false on timeout).
  bool wait_replies(std::size_t n, Duration timeout_us = 10'000'000) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                        [&] { return replies_.size() >= n; });
  }

  std::vector<std::pair<ClientId, proto::Message>> replies() {
    std::lock_guard lk(mu_);
    return replies_;
  }

  [[nodiscard]] std::uint64_t external_routes() const {
    return external_routes_.load();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<ClientId, proto::Message>> replies_;
  std::atomic<std::uint64_t> external_routes_{0};
};

/// Drives every worker of a started group from its own thread, the way the
/// transport's event loops do: service(w) whenever wake(w) fired, else at
/// the worker's next timer deadline.
class WorkerDriver {
 public:
  ~WorkerDriver() { stop(); }

  /// The NodeGroup::Options::wake callback feeding this driver.
  std::function<void(std::uint32_t)> wake() {
    return [this](std::uint32_t w) {
      {
        std::lock_guard lk(mu_);
        if (w >= pending_.size()) pending_.resize(w + 1, false);
        pending_[w] = true;
      }
      cv_.notify_all();
    };
  }

  void start(NodeGroup& group) {
    {
      std::lock_guard lk(mu_);
      if (pending_.size() < group.threads()) {
        pending_.resize(group.threads(), false);
      }
    }
    for (std::uint32_t w = 0; w < group.threads(); ++w) {
      threads_.emplace_back([this, &group, w] { run(group, w); });
    }
  }

  /// Join every driving thread; the caller then owns the workers (and
  /// calls NodeGroup::stop() for the final drain).
  void stop() {
    {
      std::lock_guard lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  void run(NodeGroup& group, std::uint32_t w) {
    std::unique_lock lk(mu_);
    while (!stopping_) {
      pending_[w] = false;
      lk.unlock();
      const Timestamp next = group.service(w);
      lk.lock();
      const auto ready = [&] { return stopping_ || pending_[w]; };
      if (next == 0) {
        cv_.wait(lk, ready);
      } else {
        cv_.wait_until(lk,
                       std::chrono::steady_clock::now() +
                           std::chrono::microseconds(next - steady_now_us()),
                       ready);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<bool> pending_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

constexpr std::uint32_t kParts = 4;

TopologyConfig one_dc_topology() {
  return TopologyConfig{1, kParts, PartitionScheme::kHash};
}

std::unique_ptr<NodeGroup> make_group(stats::Registry& registry,
                                      Router& router, WorkerDriver& driver,
                                      std::uint32_t threads) {
  NodeGroup::Options opt;
  opt.threads = threads;
  opt.seed = 7;
  opt.wake = driver.wake();
  opt.registry = &registry;
  auto group = std::make_unique<NodeGroup>(
      /*dc=*/0, std::vector<PartitionId>{0, 1, 2, 3}, router, opt);
  group->install_engines([](NodeId id, server::Context& ctx) {
    return std::make_unique<PoccServer>(id, one_dc_topology(),
                                        ProtocolConfig{}, ServiceConfig{},
                                        ctx);
  });
  return group;
}

/// Current value of the engines' series `name` (summed over the label sets
/// that include `match`).
std::uint64_t series(const stats::Registry& registry, const std::string& name,
                     const stats::Labels& match = {}) {
  return static_cast<std::uint64_t>(registry.snapshot().value(name, match));
}

PartitionId part_of(KeyId key) {
  return store::KeySpace::global().partition(key, kParts,
                                             PartitionScheme::kHash);
}

proto::PutReq put_req(ClientId client, KeyId key, const std::string& value,
                      std::uint64_t op_id) {
  proto::PutReq req;
  req.client = client;
  req.key = key;
  req.value = value;
  req.dv = VersionVector(1);
  req.op_id = op_id;
  return req;
}

TEST(NodeGroup, ServesEveryPartitionAcrossFewerWorkers) {
  RecordingRouter router;
  WorkerDriver driver;
  stats::Registry registry;
  auto group = make_group(registry, router, driver, /*threads=*/2);
  EXPECT_EQ(group->threads(), 2u);
  EXPECT_TRUE(group->hosts(NodeId{0, 3}));
  EXPECT_FALSE(group->hosts(NodeId{0, kParts}));
  EXPECT_FALSE(group->hosts(NodeId{1, 0}));
  group->start();
  driver.start(*group);

  // One PUT per partition; every engine must answer through the router.
  std::uint64_t op = 0;
  for (PartitionId p = 0; p < kParts; ++p) {
    // Find a key hashing onto partition p.
    KeyId key = 0;
    for (std::uint64_t i = 0;; ++i) {
      key = store::intern_key("ng:" + std::to_string(p) + ":" +
                              std::to_string(i));
      if (part_of(key) == p) break;
    }
    const NodeId to{0, p};
    group->enqueue(to, to,
                   proto::Message{put_req(100 + p, key, "v", ++op)});
  }
  ASSERT_TRUE(router.wait_replies(kParts));
  driver.stop();
  group->stop();

  const auto replies = router.replies();
  ASSERT_EQ(replies.size(), kParts);
  for (const auto& [client, m] : replies) {
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(m));
  }
  EXPECT_EQ(series(registry, "pocc_engine_puts_total"), kParts);
  EXPECT_EQ(router.external_routes(), 0u)
      << "a 1-DC group must never route outside the process";
}

TEST(NodeGroup, CrossPartitionTxIsAnInProcessQueuePush) {
  RecordingRouter router;
  WorkerDriver driver;
  stats::Registry registry;
  auto group = make_group(registry, router, driver, /*threads=*/2);
  group->start();
  driver.start(*group);

  // Two keys on two different partitions, then an RO-TX spanning both,
  // coordinated by partition 0 (the collocated coordinator, §II-C). The
  // SliceReq/SliceReply exchange must ride the in-process path.
  KeyId key_a = 0;
  KeyId key_b = 0;
  for (std::uint64_t i = 0;; ++i) {
    const KeyId k = store::intern_key("ngtx:" + std::to_string(i));
    if (key_a == 0 && part_of(k) == 1) key_a = k;
    if (key_b == 0 && part_of(k) == 2) key_b = k;
    if (key_a != 0 && key_b != 0) break;
  }
  const NodeId coord{0, 0};
  std::uint64_t op = 0;
  group->enqueue(coord, NodeId{0, 1},
                 proto::Message{put_req(7, key_a, "a", ++op)});
  group->enqueue(coord, NodeId{0, 2},
                 proto::Message{put_req(7, key_b, "b", ++op)});
  ASSERT_TRUE(router.wait_replies(2));

  proto::RoTxReq tx;
  tx.client = 7;
  tx.keys = {key_a, key_b};
  tx.rdv = VersionVector(1);
  tx.op_id = ++op;
  group->enqueue(coord, coord, proto::Message{std::move(tx)});
  ASSERT_TRUE(router.wait_replies(3));
  driver.stop();
  group->stop();

  const auto replies = router.replies();
  const auto* reply = std::get_if<proto::RoTxReply>(&replies.back().second);
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->items.size(), 2u);
  for (const auto& item : reply->items) {
    EXPECT_TRUE(item.found) << store::key_name(item.key);
  }
  EXPECT_GT(group->local_deliveries(), 0u)
      << "slice traffic must use the in-process path";
  EXPECT_EQ(router.external_routes(), 0u);
  EXPECT_GT(series(registry, "pocc_engine_slices_total"), 0u);
}

TEST(NodeGroup, WorkerCountClampsToPartitions) {
  RecordingRouter router;
  stats::Registry registry;
  NodeGroup::Options opt;
  opt.threads = 64;
  opt.wake = [](std::uint32_t) {};
  opt.registry = &registry;
  NodeGroup group(/*dc=*/2, std::vector<PartitionId>{1, 3}, router, opt);
  EXPECT_EQ(group.threads(), 2u);
  EXPECT_TRUE(group.hosts(NodeId{2, 1}));
  EXPECT_TRUE(group.hosts(NodeId{2, 3}));
  EXPECT_FALSE(group.hosts(NodeId{2, 0}));
  EXPECT_FALSE(group.hosts(NodeId{2, 2}));

  NodeGroup::Options one;
  one.threads = 0;  // 0 = one worker per partition
  one.wake = [](std::uint32_t) {};
  one.registry = &registry;
  NodeGroup per_part(/*dc=*/0, std::vector<PartitionId>{0, 1, 2}, router,
                     one);
  EXPECT_EQ(per_part.threads(), 3u);
}

TEST(Placement, SortedPartitionsRoundRobinOntoClampedWorkers) {
  using Parts = std::vector<PartitionId>;
  using ByWorker = std::vector<Parts>;
  EXPECT_EQ(place_partitions({0, 1}, 1), (ByWorker{{0, 1}}));
  EXPECT_EQ(place_partitions({0, 1}, 2), (ByWorker{{0}, {1}}));
  EXPECT_EQ(place_partitions({0, 1, 2}, 0), (ByWorker{{0}, {1}, {2}}));
  EXPECT_EQ(place_partitions({3, 1}, 64), (ByWorker{{1}, {3}}));
  EXPECT_EQ(place_partitions({5}, 0), (ByWorker{{5}}));
  EXPECT_EQ(place_partitions({4, 0, 3, 1, 2}, 2),
            (ByWorker{{0, 2, 4}, {1, 3}}));
  EXPECT_EQ(place_partitions({6, 2, 4}, 2), (ByWorker{{2, 6}, {4}}));
}

TEST(Placement, NodeGroupPinsByThePlacementRule) {
  // Whatever the (parts, threads) combination, the group's worker count and
  // every partition's worker are exactly what place_partitions says — the
  // rule the TCP host sizes its loops by and client pools dial by.
  RecordingRouter router;
  stats::Registry registry;
  const std::vector<std::vector<PartitionId>> part_sets = {
      {0}, {0, 1}, {1, 3}, {0, 1, 2}, {4, 0, 3, 1, 2}};
  for (const auto& parts : part_sets) {
    for (const std::uint32_t threads : {0u, 1u, 2u, 3u, 8u}) {
      NodeGroup::Options opt;
      opt.threads = threads;
      opt.wake = [](std::uint32_t) {};
      opt.registry = &registry;
      NodeGroup group(/*dc=*/0, parts, router, opt);
      const auto placement = place_partitions(parts, threads);
      ASSERT_EQ(group.threads(), placement.size())
          << parts.size() << " partitions, threads=" << threads;
      for (std::uint32_t w = 0; w < placement.size(); ++w) {
        for (const PartitionId p : placement[w]) {
          EXPECT_EQ(group.worker_of(p), w)
              << "partition " << p << ", threads=" << threads;
        }
      }
    }
  }
}

TEST(NodeGroup, TimersFirePerPartition) {
  // Engines arm periodic GC timers at start(); with 4 partitions on one
  // worker the per-slot timer bookkeeping must drive every engine (the GC
  // exchange reaches the partition-0 aggregator and returns GcVectors, all
  // in-process).
  RecordingRouter router;
  WorkerDriver driver;
  stats::Registry registry;
  auto group = make_group(registry, router, driver, /*threads=*/1);
  group->start();
  driver.start(*group);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // ProtocolConfig defaults arm GC on a short interval; wait until the
  // in-process GC exchange shows up as local deliveries.
  while (group->local_deliveries() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  driver.stop();
  group->stop();
  EXPECT_GT(group->local_deliveries(), 0u)
      << "periodic GC reports never reached the aggregator in-process";
  EXPECT_EQ(router.external_routes(), 0u);
}

TEST(NodeGroup, BoundedAdmissionRefusesOnlyDroppableWork) {
  RecordingRouter router;
  WorkerDriver driver;
  stats::Registry registry;
  NodeGroup::Options opt;
  opt.threads = 1;
  opt.seed = 7;
  opt.max_inbox_messages = 4;
  opt.wake = driver.wake();
  opt.registry = &registry;
  NodeGroup group(/*dc=*/0, std::vector<PartitionId>{0, 1, 2, 3}, router,
                  opt);
  group.install_engines([](NodeId id, server::Context& ctx) {
    return std::make_unique<PoccServer>(id, one_dc_topology(),
                                        ProtocolConfig{}, ServiceConfig{},
                                        ctx);
  });
  // Workers not driven yet: nothing drains, so the cap is hit
  // deterministically.
  KeyId key = 0;
  for (std::uint64_t i = 0;; ++i) {
    key = store::intern_key("adm:" + std::to_string(i));
    if (part_of(key) == 0) break;
  }
  const NodeId to{0, 0};
  std::uint64_t op = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        group.try_enqueue(to, to, proto::Message{put_req(1, key, "v", ++op)}));
  }
  EXPECT_FALSE(
      group.try_enqueue(to, to, proto::Message{put_req(1, key, "v", ++op)}))
      << "the admission cap must refuse droppable work";
  EXPECT_EQ(group.inbox_depth(0), 4u);
  // enqueue() — the lossless server-to-server class — is never refused:
  // shedding replication would tear the FIFO channel the protocol assumes.
  group.enqueue(to, to, proto::Message{put_req(2, key, "v", ++op)});
  EXPECT_EQ(group.inbox_depth(0), 5u);
  // Draining reopens admission.
  group.start();
  driver.start(group);
  ASSERT_TRUE(router.wait_replies(5));
  EXPECT_TRUE(
      group.try_enqueue(to, to, proto::Message{put_req(3, key, "v", ++op)}));
  ASSERT_TRUE(router.wait_replies(6));
  driver.stop();
  group.stop();
}

TEST(NodeGroup, ServiceRunsWorkersOnlyOnTheCallersThread) {
  // The sharded-transport integration seam: the group spawns NO threads;
  // whoever owns each worker's event loop calls service() and gets woken
  // through Options::wake when work lands in the inbox.
  RecordingRouter router;
  std::mutex wake_mu;
  std::vector<std::uint32_t> wakes;
  stats::Registry registry;
  NodeGroup::Options opt;
  opt.threads = 2;
  opt.seed = 7;
  opt.wake = [&](std::uint32_t w) {
    std::lock_guard lk(wake_mu);
    wakes.push_back(w);
  };
  opt.registry = &registry;
  NodeGroup group(/*dc=*/0, std::vector<PartitionId>{0, 1, 2, 3}, router,
                  opt);
  group.install_engines([](NodeId id, server::Context& ctx) {
    return std::make_unique<PoccServer>(id, one_dc_topology(),
                                        ProtocolConfig{}, ServiceConfig{},
                                        ctx);
  });
  group.start();  // must not spawn workers

  // Every partition maps onto one of the two workers.
  std::vector<std::uint32_t> hosted(group.threads(), 0);
  for (PartitionId p = 0; p < kParts; ++p) {
    const std::uint32_t w = group.worker_of(p);
    ASSERT_LT(w, group.threads());
    ++hosted[w];
  }
  EXPECT_EQ(hosted[0] + hosted[1], kParts);
  EXPECT_GT(hosted[0], 0u);
  EXPECT_GT(hosted[1], 0u);

  // Enqueue one PUT per partition: each enqueue must wake the worker that
  // owns the partition, and nothing is processed until service() runs.
  std::uint64_t op = 0;
  for (PartitionId p = 0; p < kParts; ++p) {
    KeyId key = 0;
    for (std::uint64_t i = 0;; ++i) {
      key = store::intern_key("drv:" + std::to_string(p) + ":" +
                              std::to_string(i));
      if (part_of(key) == p) break;
    }
    const NodeId to{0, p};
    group.enqueue(to, to, proto::Message{put_req(200 + p, key, "v", ++op)});
    std::lock_guard lk(wake_mu);
    ASSERT_FALSE(wakes.empty());
    EXPECT_EQ(wakes.back(), group.worker_of(p))
        << "enqueue must wake the owning worker";
  }
  EXPECT_TRUE(router.replies().empty()) << "no thread may drain undriven";

  // Drive both workers from this thread — replies arrive synchronously.
  for (std::uint32_t w = 0; w < group.threads(); ++w) group.service(w);
  const auto replies = router.replies();
  ASSERT_EQ(replies.size(), kParts);
  for (const auto& [client, m] : replies) {
    EXPECT_TRUE(std::holds_alternative<proto::PutReply>(m));
  }
  EXPECT_EQ(router.external_routes(), 0u);
  group.stop();
}

// ------------------------------------------------ pass promises ----

/// Router double recording every server-to-server route in order.
class CapturingRouter final : public Router {
 public:
  struct Routed {
    NodeId from;
    NodeId to;
    proto::Message msg;
  };
  void route(NodeId from, NodeId to, proto::Message m) override {
    std::lock_guard lk(mu_);
    routed_.push_back(Routed{from, to, std::move(m)});
  }
  void route_to_client(NodeId /*from*/, ClientId client,
                       proto::Message m) override {
    std::lock_guard lk(mu_);
    replies_.emplace_back(client, std::move(m));
  }
  std::vector<Routed> take_routed() {
    std::lock_guard lk(mu_);
    return std::exchange(routed_, {});
  }
  std::vector<std::pair<ClientId, proto::Message>> take_replies() {
    std::lock_guard lk(mu_);
    return std::exchange(replies_, {});
  }

 private:
  std::mutex mu_;
  std::vector<Routed> routed_;
  std::vector<std::pair<ClientId, proto::Message>> replies_;
};

constexpr std::uint32_t kDcs = 3;

TopologyConfig three_dc_topology() {
  return TopologyConfig{kDcs, 2, PartitionScheme::kHash};
}

/// DC 0's partitions 0 and 1 on ONE worker, driven by the test thread
/// through service(0). The heartbeat timer is far out, so every heartbeat
/// a pass routes is a pass promise.
std::unique_ptr<NodeGroup> make_dc0_group(stats::Registry& registry,
                                          Router& router,
                                          wal::WalManager* wal = nullptr) {
  NodeGroup::Options opt;
  opt.threads = 1;
  opt.seed = 7;
  opt.wal = wal;
  opt.wake = [](std::uint32_t) {};
  opt.registry = &registry;
  auto group = std::make_unique<NodeGroup>(
      /*dc=*/0, std::vector<PartitionId>{0, 1}, router, opt);
  group->install_engines([](NodeId id, server::Context& ctx) {
    ProtocolConfig protocol;
    protocol.heartbeat_interval_us = 60'000'000;
    return std::make_unique<PoccServer>(id, three_dc_topology(), protocol,
                                        ServiceConfig{}, ctx);
  });
  group->start();
  return group;
}

/// Pass promises partition `part` has sent so far.
std::uint64_t pass_heartbeats(const stats::Registry& registry,
                              PartitionId part) {
  return series(registry, "pocc_engine_heartbeats_total",
                {{"part", std::to_string(part)}, {"kind", "pass"}});
}

/// A key partition `part` of the 3-DC topology owns.
KeyId key_on(PartitionId part, const std::string& prefix) {
  for (std::uint64_t i = 0;; ++i) {
    const KeyId k = store::intern_key(prefix + std::to_string(i));
    if (store::KeySpace::global().partition(k, 2, PartitionScheme::kHash) ==
        part) {
      return k;
    }
  }
}

proto::PutReq dc0_put(ClientId client, KeyId key, std::uint64_t op_id) {
  proto::PutReq req;
  req.client = client;
  req.key = key;
  req.value = "v";
  req.dv = VersionVector(kDcs);
  req.op_id = op_id;
  return req;
}

std::vector<proto::Heartbeat> heartbeats_from(
    const std::vector<CapturingRouter::Routed>& routed, PartitionId part) {
  std::vector<proto::Heartbeat> out;
  for (const auto& r : routed) {
    if (r.from.part != part) continue;
    if (const auto* hb = std::get_if<proto::Heartbeat>(&r.msg)) {
      out.push_back(*hb);
    }
  }
  return out;
}

TEST(NodeGroupPromise, SiblingHeartbeatFollowsThePassReplicates) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  group->service(0);  // start the engines: nothing to drain, nothing sent
  EXPECT_TRUE(router.take_routed().empty()) << "an idle pass sent something";

  group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                 proto::Message{dc0_put(1, key_on(0, "pp:"), 1)});
  group->service(0);
  const auto replies = router.take_replies();
  ASSERT_EQ(replies.size(), 1u);
  const auto* put = std::get_if<proto::PutReply>(&replies[0].second);
  ASSERT_NE(put, nullptr);
  const Timestamp t = put->ut;

  const auto routed = router.take_routed();
  for (DcId j = 1; j < kDcs; ++j) {
    // On each peer DC's link: partition 0's Replicate, then partition 1's
    // promise of the same timestamp.
    std::ptrdiff_t replicate_at = -1;
    std::ptrdiff_t promise_at = -1;
    for (std::size_t i = 0; i < routed.size(); ++i) {
      if (routed[i].to.dc != j) continue;
      if (routed[i].to.part == 0 &&
          std::holds_alternative<proto::Replicate>(routed[i].msg)) {
        replicate_at = static_cast<std::ptrdiff_t>(i);
      }
      if (routed[i].from.part == 1) {
        const auto* hb = std::get_if<proto::Heartbeat>(&routed[i].msg);
        ASSERT_NE(hb, nullptr);
        EXPECT_EQ(hb->src_dc, 0u);
        EXPECT_EQ(hb->ts, t) << "the promise must be the PUT's timestamp";
        EXPECT_EQ(routed[i].to, (NodeId{j, 1}));
        promise_at = static_cast<std::ptrdiff_t>(i);
      }
    }
    ASSERT_GE(replicate_at, 0) << "no Replicate to DC " << j;
    ASSERT_GE(promise_at, 0) << "no promise to DC " << j;
    EXPECT_LT(replicate_at, promise_at);
  }
  EXPECT_TRUE(heartbeats_from(routed, 0).empty())
      << "the partition that set T has nothing to promise";
  EXPECT_EQ(group->engine(1).version_vector()[0], t);
  EXPECT_EQ(pass_heartbeats(registry, 1), 1u);

  group->service(0);
  EXPECT_TRUE(router.take_routed().empty()) << "an idle pass sent something";
  group->stop();
}

TEST(NodeGroupPromise, PassWithOnlyInProcessSendsPromisesNothing) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  // Partition 0's VV[0] ahead of partition 1's, as a WAL replay leaves it.
  const Timestamp restored = steady_now_us();
  group->engine(0).restore_vv(VersionVector{restored, 0, 0});

  // An RO-TX over both partitions: a SliceReq and its SliceReply, both
  // in-process. Partition 1 covers TV[0] = `restored` with its clock.
  proto::RoTxReq tx;
  tx.client = 3;
  tx.keys = {key_on(0, "ipa:"), key_on(1, "ipb:")};
  tx.rdv = VersionVector(kDcs);
  tx.op_id = 1;
  group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{std::move(tx)});
  group->service(0);  // drains until the slice exchange is done
  const auto replies = router.take_replies();
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<proto::RoTxReply>(&replies[0].second);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->blocked_us, 0);
  EXPECT_TRUE(router.take_routed().empty());
  EXPECT_EQ(group->engine(1).version_vector()[0], 0);
  EXPECT_EQ(pass_heartbeats(registry, 1), 0u);
  group->stop();
}

TEST(NodeGroupPromise, RecoveryMuteSuppressesThePromise) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  group->service(0);
  group->engine(1).begin_peer_recovery(/*gate_us=*/60'000'000);
  router.take_routed();  // the RecoveryReqs

  group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                 proto::Message{dc0_put(1, key_on(0, "mute:"), 1)});
  group->service(0);
  ASSERT_EQ(router.take_replies().size(), 1u);
  const auto routed = router.take_routed();
  EXPECT_FALSE(routed.empty()) << "the PUT's Replicates";
  EXPECT_TRUE(heartbeats_from(routed, 1).empty())
      << "a recovering partition promised before its RecoveryDones";
  EXPECT_EQ(pass_heartbeats(registry, 1), 0u);
  group->stop();
}

TEST(NodeGroupPromise, WithAWalOnlyPartitionsThatSyncAnywayPromise) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pocc_node_group_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    wal::WalManager wal(dir.string());
    CapturingRouter router;
    stats::Registry registry;
    auto group = make_dc0_group(registry, router, &wal);
    group->service(0);
    const std::uint64_t syncs0 = wal.wal_for(0).syncs();
    const std::uint64_t syncs1 = wal.wal_for(1).syncs();

    group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                   proto::Message{dc0_put(1, key_on(0, "walp:"), 1)});
    group->service(0);
    ASSERT_EQ(router.take_replies().size(), 1u);
    const auto routed = router.take_routed();
    EXPECT_FALSE(routed.empty()) << "the PUT's Replicates";
    EXPECT_TRUE(heartbeats_from(routed, 1).empty())
        << "a partition with nothing unsynced promised";
    EXPECT_EQ(wal.wal_for(0).syncs(), syncs0 + 1);
    EXPECT_EQ(wal.wal_for(1).syncs(), syncs1)
        << "a promise cost an fdatasync of its own";
    group->stop();
    wal.stop();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ client retries ----

/// The PutReply when `replies` holds exactly one, else nullptr.
const proto::PutReply* only_put_reply(
    const std::vector<std::pair<ClientId, proto::Message>>& replies) {
  if (replies.size() != 1) return nullptr;
  return std::get_if<proto::PutReply>(&replies[0].second);
}

TEST(NodeGroupRetry, CopyOfACompletedPutGetsTheIdenticalReply) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  const proto::PutReq put = dc0_put(1, key_on(0, "dup:"), 1);
  group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{put});
  group->service(0);
  const auto first = router.take_replies();
  const proto::PutReply* original = only_put_reply(first);
  ASSERT_NE(original, nullptr);
  router.take_routed();

  group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{put});
  group->service(0);
  const auto second = router.take_replies();
  const proto::PutReply* resent = only_put_reply(second);
  ASSERT_NE(resent, nullptr);
  EXPECT_EQ(resent->client, original->client);
  EXPECT_EQ(resent->op_id, 1u);
  EXPECT_EQ(resent->key, original->key);
  EXPECT_EQ(resent->ut, original->ut);
  EXPECT_EQ(resent->sr, original->sr);
  EXPECT_EQ(series(registry, "pocc_engine_puts_total"), 1u);
  EXPECT_EQ(group->deduped_requests(), 1u);
  EXPECT_TRUE(router.take_routed().empty()) << "the copy replicated again";
  group->stop();
}

TEST(NodeGroupRetry, CopyOfAParkedOpWaitsForTheOriginalsReply) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  // DC 1 has not yet reached the session's read dependency: the GET parks.
  proto::GetReq get;
  get.client = 2;
  get.key = key_on(0, "park:");
  get.rdv = VersionVector{0, 1'000, 0};
  get.op_id = 1;
  group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{get});
  group->service(0);
  group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{get});
  group->service(0);
  EXPECT_TRUE(router.take_replies().empty());
  EXPECT_EQ(group->deduped_requests(), 1u);

  group->enqueue(NodeId{1, 0}, NodeId{0, 0},
                 proto::Message{proto::Heartbeat{1, 1'000}});
  group->service(0);
  const auto replies = router.take_replies();
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<proto::GetReply>(&replies[0].second);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->op_id, 1u);
  EXPECT_EQ(series(registry, "pocc_engine_gets_total"), 1u);
  group->stop();
}

TEST(NodeGroupRetry, CopyOfAnOlderOpIsDropped) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  const KeyId key = key_on(0, "old:");
  group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                 proto::Message{dc0_put(3, key, 1)});
  group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                 proto::Message{dc0_put(3, key, 2)});
  group->service(0);
  ASSERT_EQ(router.take_replies().size(), 2u);

  group->enqueue(NodeId{0, 0}, NodeId{0, 0},
                 proto::Message{dc0_put(3, key, 1)});
  group->service(0);
  EXPECT_TRUE(router.take_replies().empty());
  EXPECT_EQ(group->deduped_requests(), 1u);
  EXPECT_EQ(series(registry, "pocc_engine_puts_total"), 2u);
  group->stop();
}

TEST(NodeGroupRetry, OpIdZeroIsNeverCached) {
  CapturingRouter router;
  stats::Registry registry;
  auto group = make_dc0_group(registry, router);
  const proto::PutReq put = dc0_put(4, key_on(0, "zero:"), 0);
  for (int i = 0; i < 2; ++i) {
    group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{put});
    group->service(0);
  }
  EXPECT_EQ(router.take_replies().size(), 2u);
  EXPECT_EQ(series(registry, "pocc_engine_puts_total"), 2u);
  EXPECT_EQ(group->deduped_requests(), 0u);
  group->stop();
}

/// Stamps each client reply with the fdatasyncs `wal` had done when the
/// reply left the group (single-threaded: the test thread drives it).
class SyncStampingRouter final : public Router {
 public:
  void route(NodeId /*from*/, NodeId /*to*/, proto::Message /*m*/) override {}
  void route_to_client(NodeId /*from*/, ClientId /*client*/,
                       proto::Message /*m*/) override {
    reply_syncs.push_back(wal->syncs());
  }
  const wal::PartitionWal* wal = nullptr;
  std::vector<std::uint64_t> reply_syncs;
};

TEST(NodeGroupRetry, WithAWalACopyInTheSameBatchGetsOneReplyAfterTheSync) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pocc_node_group_retry_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    wal::WalManager wal(dir.string());
    SyncStampingRouter router;
    router.wal = &wal.wal_for(0);
    stats::Registry registry;
    auto group = make_dc0_group(registry, router, &wal);
    group->service(0);
    const std::uint64_t syncs0 = wal.wal_for(0).syncs();

    const proto::PutReq put = dc0_put(5, key_on(0, "walr:"), 1);
    group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{put});
    group->enqueue(NodeId{0, 0}, NodeId{0, 0}, proto::Message{put});
    group->service(0);
    ASSERT_EQ(router.reply_syncs.size(), 1u);
    EXPECT_EQ(router.reply_syncs[0], syncs0 + 1)
        << "the reply left before its covering fdatasync";
    EXPECT_EQ(group->deduped_requests(), 1u);
    EXPECT_EQ(series(registry, "pocc_engine_puts_total"), 1u);
    group->stop();
    wal.stop();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pocc::rt
