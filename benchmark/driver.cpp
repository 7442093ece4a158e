// pocc_bench — the load driver of the repository benchmark (README.md).
//
// Connects one TcpClientPool per data center to a running poccd deployment,
// opens the workload's sessions plus a visibility-probe pair, and drives
// them from one thread per DC through the public pipelined session API
// (start_* / pump / finish_*). Every completed op leaves an exact latency
// sample; percentiles are computed from the samples, never from histogram
// buckets. The measured window runs open loop at the offered rate; a short
// closed-loop phase follows it and gives the deployment's capacity in ops/s.
// After both, every session history is replayed through
// checker::HistoryChecker and every value a read returned is checked against
// the value its writer sent.
//
// Protocol with run.py: the driver prints READY once its pools are
// connected, then waits for a line on stdin — GO starts the run, anything
// else exits. During the run it prints MEASURE_START and MEASURE_END at the
// window's edges (the traced run scrapes /metrics on them), and finally one
// line `RESULT {json}`. Exit code 0 also when the check fails: the JSON says
// so and run.py decides.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "net/tcp_client.hpp"
#include "replay.hpp"
#include "store/key_space.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pocc;
using bench::Metrics;
using bench::percentile;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Idle step of a driver pass that made no progress: hand the core to the
/// pools' transport threads for a few microseconds. Spinning (yield) starves
/// them when they share the core, and the default 50 us timer slack
/// oversleeps; both cost throughput and tail latency.
void nap() { std::this_thread::sleep_for(std::chrono::microseconds(5)); }

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

// Shared by every workload; what differs between workloads or runs is a flag.
constexpr std::uint32_t kSessionsPerDc = 16;
constexpr std::uint32_t kGetsPerPut = 4;
constexpr std::uint64_t kKeysPerPartition = 1'000;
constexpr std::uint32_t kValueSize = 8;
constexpr double kWarmupS = 0.2;
constexpr std::uint32_t kReplayOps = 20'000;
/// Closed-loop capacity phase after the open-loop window: every session
/// starts its next op as soon as the last one returns. Replies are counted
/// after a short ramp, while every session is busy.
constexpr double kCapacityRampS = 0.01;
constexpr double kCapacityS = 0.05;

struct Args {
  std::string config;
  std::string pattern = "getput";
  double rate = 0;  // total offered ops/s (open loop, Poisson arrivals)
  std::uint64_t seed = 1;
  double seconds = 2;
  bool trace = false;
  std::string spans_out;
  std::string replay_dir;
  bool corrupt_history = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a->trace = true;
      continue;
    }
    if (flag == "--corrupt-history") {
      a->corrupt_history = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--config") a->config = v;
    else if (flag == "--pattern") a->pattern = v;
    else if (flag == "--rate") a->rate = std::stod(v);
    else if (flag == "--seed") a->seed = std::stoull(v);
    else if (flag == "--seconds") a->seconds = std::stod(v);
    else if (flag == "--spans-out") a->spans_out = v;
    else if (flag == "--replay-dir") a->replay_dir = v;
    else return false;
  }
  return !a->config.empty() && (a->pattern == "getput" || a->pattern == "txput") &&
         a->seconds > 0 && a->rate > 0;
}

constexpr Duration kOpTimeoutUs = 5'000'000;
/// Probe keys live far above every workload rank, so no workload op reads
/// one and every probe write is to a key nobody wrote before.
constexpr std::uint64_t kProbeRankBase = 1'000'000'000;

enum Kind : std::uint8_t { kGet = 0, kPut = 1, kTx = 2 };
constexpr const char* kKindNames[] = {"get", "put", "tx"};

Kind kind_of(workload::OpType t) {
  switch (t) {
    case workload::OpType::kGet: return kGet;
    case workload::OpType::kPut: return kPut;
    case workload::OpType::kRoTx: return kTx;
  }
  return kGet;
}

/// One op's boundary timestamps (trace mode): generate [gen0, gen1],
/// start_* [gen1, st1], waiting for the reply [st1, reply], finish_*
/// [reply, fin]. All spans of an op share its id.
struct Span {
  std::uint64_t op = 0;
  Kind kind = kGet;
  DcId dc = 0;
  std::int64_t due = 0, gen0 = 0, gen1 = 0, st1 = 0, reply = 0, fin = 0;
  std::uint32_t pumps = 0;
};

struct Slot {
  net::TcpSession* session = nullptr;
  std::unique_ptr<workload::Generator> gen;
  workload::Op op;
  Span span;
  bool active = false;
  bool measured = false;
};

/// The visibility probe pair: the DC 0 writer PUTs a fresh key, publishes
/// it, and the DC 1 reader GETs it until the value shows up.
struct Probe {
  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> seen{0};
  KeyId key = 0;             // written before `published` is released
  std::string value;
  std::int64_t reply_ns = 0;
};

struct DcOut {
  std::vector<std::int64_t> lat_ns[3];
  std::vector<double> blocked_us;  // GetResult::blocked_us of measured GETs
  std::vector<double> vis_us;
  std::vector<Span> spans;
  std::uint64_t attempted = 0, failed = 0, probe_ops = 0;
  // Workload ops whose reply came in the window, resp. the capacity phase.
  std::uint64_t completed = 0, capacity_completed = 0;
  std::uint64_t put_value_bytes = 0;  // measured PUT payload bytes
};

struct Run {
  explicit Run(const Args& a) : args(a) {}

  const Args& args;
  std::uint32_t num_dcs = 0;
  std::uint32_t partitions = 0;
  std::int64_t t0 = 0, measure_start = 0, deadline = 0;
  std::int64_t capacity_start = 0, capacity_end = 0;
  Probe probe;
  std::atomic<std::uint64_t> op_ids{0};
};

class DcDriver {
 public:
  DcDriver(Run& run, DcId dc, std::vector<Slot> slots, net::TcpSession* probe)
      : run_(run),
        dc_(dc),
        slots_(std::move(slots)),
        probe_(probe),
        arrivals_(run.args.seed * 7'919 + dc) {}

  /// Set up the arrival schedule; call once the run's times are known.
  void begin() {
    gap_ = std::exponential_distribution<double>(
        run_.args.rate / static_cast<double>(run_.num_dcs) / 1e9);
    next_arrival_ = run_.t0 + static_cast<std::int64_t>(gap_(arrivals_));
  }

  /// One pass over the sessions and the probe; sets `*progress` when an op
  /// started or finished. False once the run is over for this DC.
  bool step(bool* progress) {
    const std::int64_t now = now_ns();
    const bool closed = now >= run_.deadline && now < run_.capacity_end;
    bool busy = false;
    while (next_arrival_ < run_.deadline && next_arrival_ <= now) {
      backlog_.push_back(next_arrival_);
      next_arrival_ += static_cast<std::int64_t>(gap_(arrivals_));
    }
    for (Slot& s : slots_) {
      if (!s.active) {
        if (!backlog_.empty()) {
          start_op(s, backlog_.front());
          backlog_.pop_front();
        } else if (closed) {
          start_op(s, now);
        } else {
          continue;
        }
        *progress = true;
      }
      ++s.span.pumps;
      if (s.session->pump()) {
        finish_op(s);
        *progress = true;
      } else {
        busy = true;
      }
    }
    if (probe_ != nullptr) busy |= dc_ == 0 ? probe_writer() : probe_reader();
    return busy || now < run_.capacity_end || !backlog_.empty();
  }

  DcOut& out() { return out_; }

 private:
  bool in_window(std::int64_t t) const {
    return t >= run_.measure_start && t < run_.deadline;
  }

  void start_op(Slot& s, std::int64_t due) {
    const bool trace = run_.args.trace;
    Span& sp = s.span;
    sp = Span{};
    sp.op = ++run_.op_ids;
    sp.dc = dc_;
    sp.due = due;
    if (trace) sp.gen0 = now_ns();
    s.op = s.gen->next();
    if (trace) sp.gen1 = now_ns();
    sp.kind = kind_of(s.op.type);
    switch (sp.kind) {
      case kGet:
        s.session->start_get_id(s.op.keys.front(), kOpTimeoutUs);
        break;
      case kPut:
        s.session->start_put_id(s.op.keys.front(), s.op.value, kOpTimeoutUs);
        break;
      case kTx:
        s.session->start_ro_tx_ids(s.op.keys, kOpTimeoutUs);
        break;
    }
    if (trace) sp.st1 = now_ns();
    s.active = true;
    s.measured = in_window(due);  // an op belongs to the window it was due in
    ++out_.attempted;
  }

  void finish_op(Slot& s) {
    Span& sp = s.span;
    sp.reply = now_ns();
    bool ok = false;
    Duration blocked = 0;
    switch (sp.kind) {
      case kGet: {
        const auto r = s.session->finish_get();
        ok = r.ok;
        blocked = r.blocked_us;
        break;
      }
      case kPut:
        ok = s.session->finish_put().ok;
        break;
      case kTx:
        ok = s.session->finish_tx().ok;
        break;
    }
    if (run_.args.trace) sp.fin = now_ns();
    s.active = false;
    if (!ok) ++out_.failed;
    if (ok && in_window(sp.reply)) ++out_.completed;
    if (ok && sp.reply >= run_.capacity_start && sp.reply < run_.capacity_end) {
      ++out_.capacity_completed;
    }
    if (!s.measured || !ok) return;
    // Timed from the due time: a stall also charges the ops queued behind it.
    out_.lat_ns[sp.kind].push_back(sp.reply - sp.due);
    if (sp.kind == kGet) out_.blocked_us.push_back(static_cast<double>(blocked));
    if (sp.kind == kPut) out_.put_value_bytes += s.op.value.size();
    if (run_.args.trace) out_.spans.push_back(sp);
  }

  /// DC 0 side of the probe pair. True while an op is in flight.
  bool probe_writer() {
    Probe& p = run_.probe;
    if (!probe_active_) {
      const std::uint64_t seq = p.published.load(std::memory_order_acquire);
      if (p.seen.load(std::memory_order_acquire) != seq) return false;
      if (now_ns() >= run_.deadline) return false;
      probe_key_ = store::KeySpace::global().intern_partition_key(
          static_cast<PartitionId>(seq % run_.partitions), kProbeRankBase + seq);
      probe_value_ = "probe-" + std::to_string(seq + 1);
      probe_->start_put_id(probe_key_, probe_value_, kOpTimeoutUs);
      probe_active_ = true;
      ++out_.attempted;
      ++out_.probe_ops;
    }
    if (!probe_->pump()) return true;
    probe_active_ = false;
    const std::int64_t reply = now_ns();
    if (!probe_->finish_put().ok) {
      ++out_.failed;
      return false;
    }
    p.key = probe_key_;
    p.value = probe_value_;
    p.reply_ns = reply;
    p.published.fetch_add(1, std::memory_order_release);
    return false;
  }

  /// DC 1 side of the probe pair: GET the published key until it appears.
  bool probe_reader() {
    Probe& p = run_.probe;
    if (!probe_active_) {
      const std::uint64_t seq = p.published.load(std::memory_order_acquire);
      if (seq == p.seen.load(std::memory_order_relaxed)) return false;
      probe_->start_get_id(p.key, kOpTimeoutUs);
      probe_active_ = true;
      ++out_.attempted;
      ++out_.probe_ops;
    }
    if (!probe_->pump()) return true;
    probe_active_ = false;
    const std::int64_t now = now_ns();
    const auto r = probe_->finish_get();
    if (!r.ok) {
      ++out_.failed;
      return false;
    }
    if (r.found && r.value == p.value) {
      if (in_window(p.reply_ns)) {
        out_.vis_us.push_back(static_cast<double>(now - p.reply_ns) / 1e3);
      }
      p.seen.fetch_add(1, std::memory_order_release);
    }
    return false;
  }

  Run& run_;
  DcId dc_;
  std::vector<Slot> slots_;
  net::TcpSession* probe_;
  bool probe_active_ = false;
  KeyId probe_key_ = 0;
  std::string probe_value_;
  std::deque<std::int64_t> backlog_;  // due times of ops not started yet
  // Poisson arrivals (independent users), seeded per DC.
  std::mt19937_64 arrivals_;
  std::exponential_distribution<double> gap_;
  std::int64_t next_arrival_ = 0;
  DcOut out_;
};

// ------------------------------------------------------------ correctness

struct VersionKey {
  KeyId key;
  Timestamp ut;
  DcId sr;
  friend bool operator==(const VersionKey&, const VersionKey&) = default;
};
struct VersionKeyHash {
  std::size_t operator()(const VersionKey& v) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(v.ut) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (std::uint64_t{v.key} << 8) ^ v.sr);
  }
};

/// Every value a read returned must be byte-identical to the value the
/// version's writer sent. Returns the number of mismatches.
std::uint64_t check_values(const std::vector<checker::SessionHistory>& hs) {
  std::unordered_map<VersionKey, const std::string*, VersionKeyHash> written;
  for (const auto& h : hs) {
    std::unordered_map<std::uint64_t, const std::string*> sent;
    for (const auto& ev : h.events) {
      if (const auto* req = std::get_if<proto::PutReq>(&ev)) {
        sent[req->op_id] = &req->value;
      } else if (const auto* rep = std::get_if<proto::PutReply>(&ev)) {
        auto it = sent.find(rep->op_id);
        if (it != sent.end()) written[{rep->key, rep->ut, rep->sr}] = it->second;
      }
    }
  }
  std::uint64_t bad = 0;
  const auto check = [&](const proto::ReadItem& item) {
    if (!item.found) return;
    auto it = written.find({item.key, item.ut, item.sr});
    if (it == written.end() || *it->second != item.value) ++bad;
  };
  for (const auto& h : hs) {
    for (const auto& ev : h.events) {
      if (const auto* g = std::get_if<proto::GetReply>(&ev)) check(g->item);
      if (const auto* t = std::get_if<proto::RoTxReply>(&ev)) {
        for (const auto& item : t->items) check(item);
      }
    }
  }
  return bad;
}

/// Self-test hook: make one read return "not found" for a key its own
/// session wrote earlier — a read-your-writes violation the checker must
/// report. Falls back to pointing a read at a version nobody wrote, which
/// leaves the replay incomplete.
void corrupt(std::vector<checker::SessionHistory>& hs) {
  for (auto& h : hs) {
    std::unordered_map<KeyId, bool> own;
    for (auto& ev : h.events) {
      if (const auto* rep = std::get_if<proto::PutReply>(&ev)) own[rep->key] = true;
      proto::ReadItem* item = nullptr;
      if (auto* g = std::get_if<proto::GetReply>(&ev)) item = &g->item;
      if (item != nullptr && item->found && own.count(item->key) != 0) {
        item->found = false;
        item->value.clear();
        std::fprintf(stderr, "pocc_bench: corrupted a read of client %llu\n",
                     static_cast<unsigned long long>(h.client));
        return;
      }
    }
  }
  for (auto& h : hs) {
    for (auto& ev : h.events) {
      if (auto* g = std::get_if<proto::GetReply>(&ev); g && g->item.found) {
        g->item.ut += 1;
        return;
      }
    }
  }
}

// ------------------------------------------------------------------ output

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    field(k, buf);
  }
  void boolean(const std::string& k, bool v) { field(k, v ? "true" : "false"); }
  void metrics(const Metrics& m) {
    for (const auto& [k, v] : m) num(k, v);
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

/// Exact latency summary in microseconds: sample count and percentiles.
void latency(Json& j, const std::string& name,
             const std::vector<std::int64_t>& ns) {
  std::vector<double> us(ns.size());
  std::transform(ns.begin(), ns.end(), us.begin(),
                 [](std::int64_t v) { return static_cast<double>(v) / 1e3; });
  j.num(name + ".n", static_cast<double>(us.size()));
  j.num(name + ".p50_us", percentile(us, 0.50));
  j.num(name + ".p99_us", percentile(us, 0.99));
  j.num(name + ".p999_us", percentile(us, 0.999));
}

void write_spans(const std::string& path, const std::vector<DcOut*>& outs,
                 std::int64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "pocc_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "op,kind,dc,due_ns,generate_start_ns,generate_end_ns,"
                  "start_end_ns,reply_ns,finish_end_ns,pumps\n");
  for (const DcOut* o : outs) {
    for (const Span& s : o->spans) {
      std::fprintf(f, "%llu,%s,%u,%lld,%lld,%lld,%lld,%lld,%lld,%u\n",
                   static_cast<unsigned long long>(s.op), kKindNames[s.kind],
                   s.dc, static_cast<long long>(s.due - t0),
                   static_cast<long long>(s.gen0 - t0),
                   static_cast<long long>(s.gen1 - t0),
                   static_cast<long long>(s.st1 - t0),
                   static_cast<long long>(s.reply - t0),
                   static_cast<long long>(s.fin - t0), s.pumps);
    }
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr, "usage: pocc_bench --config FILE [options]; see run.py\n");
    return 2;
  }
  std::string error;
  auto layout = net::load_cluster_config(args.config, &error);
  if (!layout.has_value()) {
    std::fprintf(stderr, "pocc_bench: bad config: %s\n", error.c_str());
    return 2;
  }
  const std::uint32_t dcs = layout->topology.num_dcs;
  const std::uint32_t parts = layout->topology.partitions_per_dc;
  if (dcs < 2) {
    std::fprintf(stderr, "pocc_bench: the visibility probe needs 2 DCs\n");
    return 2;
  }

  workload::WorkloadConfig wl;
  wl.pattern = args.pattern == "txput" ? workload::Pattern::kTxPut
                                       : workload::Pattern::kGetPut;
  wl.gets_per_put = kGetsPerPut;
  wl.tx_partitions = parts;
  wl.think_time_us = 0;
  wl.keys_per_partition = kKeysPerPartition;
  wl.value_size = kValueSize;

  prctl(PR_SET_TIMERSLACK, 1UL);  // inherited by every thread below
  std::vector<std::unique_ptr<net::TcpClientPool>> pools;
  for (DcId dc = 0; dc < dcs; ++dc) {
    pools.push_back(std::make_unique<net::TcpClientPool>(*layout, dc));
    pools.back()->start();
  }
  for (auto& pool : pools) {
    if (!pool->wait_connected(10'000'000)) {
      std::fprintf(stderr, "pocc_bench: cannot reach DC %u\n", pool->dc());
      return 3;
    }
  }

  Run run(args);
  run.num_dcs = dcs;
  run.partitions = parts;
  std::vector<std::unique_ptr<DcDriver>> drivers;
  std::vector<std::uint64_t> gen_seeds;
  for (DcId dc = 0; dc < dcs; ++dc) {
    std::vector<Slot> slots(kSessionsPerDc);
    for (std::uint32_t i = 0; i < kSessionsPerDc; ++i) {
      const std::uint64_t seed = args.seed * 1'000'003 + dc * 1'000 + i;
      gen_seeds.push_back(seed);
      slots[i].session = &pools[dc]->connect(1 + dc * 1'000 + i);
      slots[i].gen = std::make_unique<workload::Generator>(wl, parts, seed);
    }
    net::TcpSession* probe =
        dc < 2 ? &pools[dc]->connect(900'000 + dc) : nullptr;
    drivers.push_back(
        std::make_unique<DcDriver>(run, dc, std::move(slots), probe));
  }

  std::printf("READY\n");
  std::fflush(stdout);
  std::string line;
  if (!std::getline(std::cin, line) || line != "GO") {
    for (auto& pool : pools) pool->stop();
    return 0;
  }

  const auto transport_totals = [&] {
    net::TransportStats t;
    for (auto& pool : pools) t += pool->transport_stats();
    return t;
  };
  run.t0 = now_ns();
  run.measure_start = run.t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  run.deadline =
      run.measure_start + static_cast<std::int64_t>(args.seconds * 1e9);
  run.capacity_start =
      run.deadline + static_cast<std::int64_t>(kCapacityRampS * 1e9);
  run.capacity_end =
      run.capacity_start + static_cast<std::int64_t>(kCapacityS * 1e9);
  std::vector<std::thread> threads;
  for (auto& d : drivers) {
    threads.emplace_back([&d] {
      d->begin();
      for (bool live = true; live;) {
        bool progress = false;
        live = d->step(&progress);
        if (!progress) nap();
      }
    });
  }
  sleep_until_ns(run.measure_start);
  const net::TransportStats ts0 = transport_totals();
  std::printf("MEASURE_START\n");
  std::fflush(stdout);
  sleep_until_ns(run.deadline);
  const net::TransportStats ts1 = transport_totals();
  std::printf("MEASURE_END\n");
  std::fflush(stdout);
  for (auto& t : threads) t.join();
  const std::int64_t drained = now_ns();

  std::vector<checker::SessionHistory> histories;
  std::uint64_t reconnects = 0;
  for (auto& pool : pools) {
    auto h = pool->histories();
    histories.insert(histories.end(), h.begin(), h.end());
    reconnects += pool->transport_stats().reconnects;
  }
  for (auto& pool : pools) pool->stop();

  // ---- correctness gate (outside the timed window)
  if (args.corrupt_history) corrupt(histories);
  const std::int64_t check_t0 = now_ns();
  const std::uint64_t bad_values = check_values(histories);
  checker::HistoryChecker checker(dcs);
  const checker::ReplayResult replay = checker::replay_history(histories, checker);
  const double check_s = static_cast<double>(now_ns() - check_t0) / 1e9;
  for (std::size_t i = 0; i < checker.violations().size() && i < 5; ++i) {
    std::fprintf(stderr, "pocc_bench: VIOLATION: %s\n",
                 checker.violations()[i].c_str());
  }
  if (!replay.complete) {
    std::fprintf(stderr, "pocc_bench: incomplete replay: %.300s\n",
                 replay.error.c_str());
  }
  std::size_t events = 0;
  for (const auto& h : histories) events += h.events.size();

  // ---- aggregate
  std::vector<DcOut*> outs;
  for (auto& d : drivers) outs.push_back(&d->out());
  std::vector<std::int64_t> lat[3];
  std::vector<double> vis, blocked;
  std::uint64_t attempted = 0, failed = 0, probe_ops = 0, value_bytes = 0;
  std::uint64_t completed = 0, capacity_completed = 0;
  for (DcOut* o : outs) {
    for (int k = 0; k < 3; ++k) {
      lat[k].insert(lat[k].end(), o->lat_ns[k].begin(), o->lat_ns[k].end());
    }
    vis.insert(vis.end(), o->vis_us.begin(), o->vis_us.end());
    blocked.insert(blocked.end(), o->blocked_us.begin(), o->blocked_us.end());
    attempted += o->attempted;
    failed += o->failed;
    probe_ops += o->probe_ops;
    completed += o->completed;
    capacity_completed += o->capacity_completed;
    value_bytes += o->put_value_bytes;
  }
  const std::size_t ops = lat[0].size() + lat[1].size() + lat[2].size();

  Json j;
  j.boolean("correct", replay.complete && checker.violations().empty() &&
                           bad_values == 0);
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.num("ops", static_cast<double>(ops));
  j.num("window_ops_per_s", static_cast<double>(completed) / args.seconds);
  j.num("capacity_ops_per_s",
        static_cast<double>(capacity_completed) / kCapacityS);
  j.num("window_s", args.seconds);
  j.num("drain_s", static_cast<double>(drained - run.capacity_end) / 1e9);
  j.num("probe_ops", static_cast<double>(probe_ops));
  j.num("put_value_bytes", static_cast<double>(value_bytes));
  for (int k = 0; k < 3; ++k) latency(j, kKindNames[k], lat[k]);
  std::vector<std::int64_t> reads = lat[kGet];
  reads.insert(reads.end(), lat[kTx].begin(), lat[kTx].end());
  latency(j, "read", reads);
  j.num("visibility.n", static_cast<double>(vis.size()));
  j.num("visibility.p50_us", percentile(vis, 0.50));
  j.num("visibility.p99_us", percentile(vis, 0.99));
  j.num("check_s", check_s);
  j.num("history_events", static_cast<double>(events));
  j.num("history_replayed", static_cast<double>(replay.events_replayed));
  j.boolean("history_complete", replay.complete);
  j.num("violations", static_cast<double>(checker.violations().size()));
  j.num("checks", static_cast<double>(checker.checks_performed()));
  j.num("value_mismatches", static_cast<double>(bad_values));
  j.num("client.reconnects", static_cast<double>(reconnects));

  if (args.trace) {
    std::vector<double> gen_ns, start_ns, finish_ns, lag_us;
    double pumps = 0;
    std::size_t spans = 0;
    for (DcOut* o : outs) {
      for (const Span& s : o->spans) {
        gen_ns.push_back(static_cast<double>(s.gen1 - s.gen0));
        start_ns.push_back(static_cast<double>(s.st1 - s.gen1));
        finish_ns.push_back(static_cast<double>(s.fin - s.reply));
        lag_us.push_back(static_cast<double>(s.gen0 - s.due) / 1e3);
        pumps += s.pumps;
        ++spans;
      }
    }
    j.num("workload.next_ns_p50", percentile(gen_ns, 0.5));
    j.num("workload.send_lag_us_p99", percentile(lag_us, 0.99));
    j.num("client.start_ns_p50", percentile(start_ns, 0.5));
    j.num("client.finish_ns_p50", percentile(finish_ns, 0.5));
    j.num("client.pumps_per_op", spans ? pumps / static_cast<double>(spans) : 0);
    const double calls =
        static_cast<double>(ts1.sendmsg_calls - ts0.sendmsg_calls);
    j.num("client.sendmsg_frames_per_call",
          calls > 0 ? static_cast<double>(ts1.sendmsg_frames -
                                          ts0.sendmsg_frames) / calls
                    : 0);
    j.num("server.get_blocked_us_p99", percentile(blocked, 0.99));
    if (!args.spans_out.empty()) write_spans(args.spans_out, outs, run.t0);

    if (!args.replay_dir.empty()) {
      // The same seeded op stream, session by session in round-robin.
      std::vector<workload::Generator> gens;
      for (std::uint64_t seed : gen_seeds) gens.emplace_back(wl, parts, seed);
      std::vector<workload::Op> stream;
      stream.reserve(kReplayOps);
      for (std::uint32_t i = 0; i < kReplayOps; ++i) {
        stream.push_back(gens[i % gens.size()].next());
      }
      j.metrics(bench::run_layer_replay(stream, dcs, parts, args.replay_dir));
    }
  }

  std::printf("RESULT %s\n", j.done().c_str());
  std::fflush(stdout);
  return 0;
}
