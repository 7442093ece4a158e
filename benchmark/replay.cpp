#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <tuple>

#include "pocc/pocc_server.hpp"
#include "proto/codec.hpp"
#include "runtime/rt_node.hpp"
#include "server/context.hpp"
#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "wal/partition_wal.hpp"

namespace pocc::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// What the replayed engines hand the host: messages to each other (RO-TX
/// slices; traffic to other DCs is dropped, so the replay measures one DC's
/// work) and timers (clock waits, heartbeats), fired when due.
struct Fabric {
  std::vector<std::tuple<NodeId, NodeId, proto::Message>> outbox;
  std::vector<std::tuple<Timestamp, PartitionId, std::uint64_t>> timers;
};

/// Context of one replayed engine on the real steady clock.
class ReplayContext final : public server::Context {
 public:
  ReplayContext(NodeId self, Fabric& fabric) : self_(self), fabric_(fabric) {}

  Timestamp clock_now() override {
    last_ = std::max(last_ + 1, rt::steady_now_us());
    return last_;
  }
  Timestamp clock_peek() override {
    return std::max(last_, rt::steady_now_us());
  }
  Timestamp time() override { return rt::steady_now_us(); }
  void send(NodeId to, proto::Message m) override {
    if (to.dc == self_.dc) fabric_.outbox.emplace_back(self_, to, std::move(m));
  }
  void reply(ClientId /*client*/, proto::Message m) override {
    replies.push_back(std::move(m));
  }
  void set_timer(Duration delay, std::uint64_t timer_id) override {
    fabric_.timers.emplace_back(rt::steady_now_us() + delay, self_.part,
                                timer_id);
  }

  std::vector<proto::Message> replies;

 private:
  NodeId self_;
  Fabric& fabric_;
  Timestamp last_ = 0;
};

enum MsgKind { kGetReq, kPutReq, kTxReq, kGetReply, kPutReply, kTxReply };
constexpr const char* kMsgNames[] = {"get_req",   "put_req",   "ro_tx_req",
                                     "get_reply", "put_reply", "ro_tx_reply"};

MsgKind kind_of(const proto::Message& m) {
  if (std::holds_alternative<proto::GetReq>(m)) return kGetReq;
  if (std::holds_alternative<proto::PutReq>(m)) return kPutReq;
  if (std::holds_alternative<proto::RoTxReq>(m)) return kTxReq;
  if (std::holds_alternative<proto::GetReply>(m)) return kGetReply;
  if (std::holds_alternative<proto::PutReply>(m)) return kPutReply;
  return kTxReply;
}

struct CodecTimes {
  std::vector<double> encode_ns[6];
  std::vector<double> decode_ns[6];
  std::uint64_t bytes = 0;

  /// Encode and decode `m` once, timing both; aborts on a codec failure
  /// (the replay's inputs are well-formed, so a failure is a bug).
  void round_trip(const proto::Message& m) {
    const MsgKind kind = kind_of(m);
    std::vector<std::uint8_t> buf;
    buf.reserve(256);
    auto t0 = Clock::now();
    proto::encode(m, buf);
    encode_ns[kind].push_back(ns_since(t0));
    t0 = Clock::now();
    const proto::DecodeResult r = proto::decode_frame(buf.data(), buf.size());
    decode_ns[kind].push_back(ns_since(t0));
    if (r.status != proto::DecodeResult::Status::kOk ||
        r.consumed != buf.size()) {
      std::fprintf(stderr, "replay: %s did not round-trip: %s\n",
                   kMsgNames[kind], r.error.c_str());
      std::exit(1);
    }
    bytes += buf.size();
  }
};

double p50_of(std::vector<double> v) { return percentile(v, 0.5); }

double p50_all(const std::vector<double> (&per_kind)[6]) {
  std::vector<double> all;
  for (const auto& v : per_kind) all.insert(all.end(), v.begin(), v.end());
  return percentile(all, 0.5);
}

}  // namespace

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

Metrics run_layer_replay(const std::vector<workload::Op>& ops,
                         std::uint32_t num_dcs, std::uint32_t partitions,
                         const std::string& wal_dir) {
  TopologyConfig topo;
  topo.num_dcs = num_dcs;
  topo.partitions_per_dc = partitions;
  topo.partition_scheme = PartitionScheme::kPrefix;
  const ProtocolConfig protocol;
  const ServiceConfig service;

  Fabric fabric;
  std::vector<std::unique_ptr<ReplayContext>> ctxs;
  std::vector<std::unique_ptr<PoccServer>> servers;
  for (PartitionId p = 0; p < partitions; ++p) {
    ctxs.push_back(std::make_unique<ReplayContext>(NodeId{0, p}, fabric));
    servers.push_back(std::make_unique<PoccServer>(NodeId{0, p}, topo,
                                                   protocol, service,
                                                   *ctxs.back()));
    servers.back()->start();
  }

  store::KeySpace& global_keys = store::KeySpace::global();
  store::KeySpace keys;  // fresh interner: first sightings pay the insert
  store::PartitionStore store;
  wal::PartitionWal wal(wal_dir + "/p0");

  CodecTimes codec;
  std::vector<double> handle_ns[3];
  std::vector<double> intern_ns, insert_ns, lookup_ns, append_ns, sync_us;
  const VersionVector zero(num_dcs);
  Timestamp ut = 0;
  std::uint64_t op_id = 0;
  std::uintptr_t sink = 0;
  std::uint32_t unsynced = 0;
  constexpr std::uint32_t kGroupCommit = 16;

  for (const workload::Op& op : ops) {
    ++op_id;
    proto::Message req;
    PartitionId part = 0;  // RO-TXs go to the partition-0 coordinator
    int kind = 0;
    switch (op.type) {
      case workload::OpType::kGet: {
        proto::GetReq r;
        r.client = 1;
        r.key = op.keys.front();
        r.rdv = zero;
        r.op_id = op_id;
        part = global_keys.partition(r.key, partitions, topo.partition_scheme);
        req = std::move(r);
        kind = 0;
        break;
      }
      case workload::OpType::kPut: {
        proto::PutReq r;
        r.client = 1;
        r.key = op.keys.front();
        r.value = op.value;
        r.dv = zero;
        r.op_id = op_id;
        part = global_keys.partition(r.key, partitions, topo.partition_scheme);
        req = std::move(r);
        kind = 1;
        break;
      }
      case workload::OpType::kRoTx: {
        proto::RoTxReq r;
        r.client = 1;
        r.keys = op.keys;
        r.rdv = zero;
        r.op_id = op_id;
        req = std::move(r);
        kind = 2;
        break;
      }
    }

    // --- proto: the request crosses the wire.
    codec.round_trip(req);

    // --- server: the engine handles it, with the DC's internal RO-TX slice
    // traffic delivered and its timers fired until the reply is out.
    ReplayContext& ctx = *ctxs[part];
    ctx.replies.clear();
    auto t0 = Clock::now();
    servers[part]->handle_message(NodeId{0, part}, req);
    while (true) {
      while (!fabric.outbox.empty()) {
        auto [from, to, m] = std::move(fabric.outbox.back());
        fabric.outbox.pop_back();
        servers[to.part]->handle_message(from, std::move(m));
      }
      if (!ctx.replies.empty() || fabric.timers.empty()) break;
      if (ns_since(t0) > 1e9) break;  // reported below as a missing reply
      const Timestamp now = rt::steady_now_us();
      auto due = std::partition(fabric.timers.begin(), fabric.timers.end(),
                                [now](const auto& t) { return std::get<0>(t) > now; });
      std::vector<std::tuple<Timestamp, PartitionId, std::uint64_t>> fire(
          due, fabric.timers.end());
      fabric.timers.erase(due, fabric.timers.end());
      for (const auto& [at, p, id] : fire) servers[p]->on_timer(id);
    }
    handle_ns[kind].push_back(ns_since(t0));
    if (ctx.replies.size() != 1) {
      std::fprintf(stderr, "replay: op %llu produced %zu replies\n",
                   static_cast<unsigned long long>(op_id), ctx.replies.size());
      std::exit(1);
    }

    // --- proto: the reply crosses the wire.
    codec.round_trip(ctx.replies.front());

    // --- store + key interner: the op's keys and, for a PUT, its version.
    for (KeyId key : op.keys) {
      const std::string_view name = global_keys.name(key);
      t0 = Clock::now();
      sink += keys.intern(name);
      intern_ns.push_back(ns_since(t0));
    }
    if (op.type == workload::OpType::kPut) {
      store::Version v;
      v.key = op.keys.front();
      v.value = op.value;
      v.ut = ++ut;
      v.dv = zero;
      store::Version logged = v;
      t0 = Clock::now();
      sink += store.insert(std::move(v));
      insert_ns.push_back(ns_since(t0));

      // --- wal: append, group-committed every kGroupCommit appends.
      t0 = Clock::now();
      wal.log_version(logged);
      append_ns.push_back(ns_since(t0));
      if (++unsynced == kGroupCommit) {
        t0 = Clock::now();
        wal.sync();
        sync_us.push_back(ns_since(t0) / 1e3);
        unsynced = 0;
      }
    } else {
      for (KeyId key : op.keys) {
        t0 = Clock::now();
        sink += reinterpret_cast<std::uintptr_t>(store.find(key));
        lookup_ns.push_back(ns_since(t0));
      }
    }
  }
  if (unsynced > 0) wal.sync();
  if (sink == 1) std::fprintf(stderr, " ");  // keeps the timed calls alive

  Metrics m;
  m.emplace_back("proto.encode_ns", p50_all(codec.encode_ns));
  m.emplace_back("proto.decode_ns", p50_all(codec.decode_ns));
  m.emplace_back("proto.bytes_per_op",
                 ops.empty() ? 0.0
                             : static_cast<double>(codec.bytes) /
                                   static_cast<double>(ops.size()));
  m.emplace_back("server.handle_get_ns", p50_of(handle_ns[0]));
  m.emplace_back("server.handle_put_ns", p50_of(handle_ns[1]));
  m.emplace_back("server.handle_ro_tx_ns", p50_of(handle_ns[2]));
  m.emplace_back("store.intern_ns", p50_of(intern_ns));
  m.emplace_back("store.insert_ns", p50_of(insert_ns));
  m.emplace_back("store.lookup_ns", p50_of(lookup_ns));
  m.emplace_back("wal.append_ns", p50_of(append_ns));
  m.emplace_back("wal.sync_us_p50", p50_of(sync_us));
  for (int k = 0; k < 6; ++k) {
    if (codec.encode_ns[k].empty()) continue;
    const std::string name = kMsgNames[k];
    m.emplace_back("proto.encode_ns." + name, p50_of(codec.encode_ns[k]));
    m.emplace_back("proto.decode_ns." + name, p50_of(codec.decode_ns[k]));
    m.emplace_back("proto.count." + name,
                   static_cast<double>(codec.encode_ns[k].size()));
  }
  m.emplace_back("replay.ops", static_cast<double>(ops.size()));
  m.emplace_back("replay.wal_syncs", static_cast<double>(sync_us.size()));
  return m;
}

}  // namespace pocc::bench
