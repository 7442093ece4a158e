// pocc_loadgen — drives a networked poccd cluster over TCP with the paper's
// workload generators (§V-B/C) and verifies the collected client history
// against the causal-consistency checker.
//
//   pocc_loadgen --config cluster.cfg                       # 5 s load, all DCs
//   pocc_loadgen --config cluster.cfg --mode smoke          # causal smoke
//   pocc_loadgen --config cluster.cfg --out BENCH_tcp_loadgen.json
//
// Modes:
//   load  — N closed-loop client sessions per DC run the Get-Put (or Tx-Put)
//           workload for --duration-s, then the merged per-session histories
//           are replayed through the HistoryChecker. Emits one JSON line
//           (throughput + latency percentiles + checker verdict, plus the
//           checker's cost: check_s replay time and peak_rss_mb). RO-TX
//           runs also report how often the servers parked a slice
//           (tx_blocked_ratio) and the park time's tx_blocked_us_p99.
//   smoke — deterministic causal scenarios: read-your-writes in one DC and
//           the cross-DC WC-DEP chain (photo/comment, §II-A), plus eventual
//           cross-DC convergence; every session history checked afterwards.
//
// Exit codes: 0 = pass, 1 = consistency violation / incomplete history,
// 2 = operation failures (timeouts), 3 = deadline-budget breach (more than
// --deadline-budget of the ops missed their --op-deadline-us), 4 = usage or
// config error.
//
// --resilient arms the client sessions' retry machinery (deadlines, retry
// of the same op_id with backoff, failover — net/tcp_client.hpp): op
// timeouts become survivable blips, and the JSON reports the per-op
// timeout/retry/failover/overloaded counters so a chaos run can budget its
// failure rate instead of failing on the first lost packet.
//
// --expect-disruption is for crash-recovery drills (a server is killed and
// restarted mid-run): operation timeouts and an incomplete history replay —
// a PUT can be applied and replicated while its reply died with the killed
// process — no longer fail the run. Consistency VIOLATIONS still exit 1;
// that is the whole point of the drill.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_client.hpp"
#include "proto/codec.hpp"
#include "runtime/rt_node.hpp"
#include "stats/histogram.hpp"
#include "store/key_space.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pocc;

struct Args {
  const char* config_path = nullptr;
  std::string mode = "load";
  long dc = -1;  // -1 = all DCs
  std::uint32_t clients_per_dc = 4;
  /// TcpClientPools (socket sets: one connection per server worker) per DC;
  /// sessions round-robin across the pools. A pool has no thread of its
  /// own — the threads driving its sessions drive its sockets — so more
  /// pools spread the sockets, not the CPU.
  std::uint32_t connections_per_dc = 1;
  double duration_s = 5.0;
  /// Sessions interleaved per driver thread (pipelined mode). 1 = the
  /// classic closed loop: one blocking session per thread. W > 1 groups
  /// every W sessions onto one driver that round-robins them through the
  /// non-blocking start_*/pump/finish_* API, so each pool connection
  /// carries up to W concurrent in-flight ops.
  std::uint32_t pipeline = 1;
  std::string pattern = "getput";
  std::uint32_t gets_per_put = 4;
  std::uint32_t tx_partitions = 2;
  Duration think_us = 0;
  std::uint32_t value_size = 8;
  /// > value_size arms the skewed payload distribution (zipfian size
  /// octaves — see WorkloadConfig::value_size_max).
  std::uint32_t value_size_max = 0;
  std::uint64_t keys_per_partition = 1'000;
  /// Rank offset making this run's keyspace disjoint from earlier runs
  /// against the same live cluster (see WorkloadConfig::key_offset).
  std::uint64_t key_offset = 0;
  /// Key-popularity distribution: "zipfian" (default) or "uniform".
  /// Uniform is zipf with theta 0; the split flag exists so scripts read as
  /// the intent ("--key-dist uniform") rather than a magic theta.
  std::string key_dist = "zipfian";
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
  ClientId client_base = 1;
  const char* out_path = nullptr;
  bool check = true;
  bool expect_disruption = false;
  bool resilient = false;
  /// Per-op deadline handed to every session op (await bound when
  /// --resilient is off, full retry deadline when on).
  Duration op_deadline_us = 10'000'000;
  /// Fail the run (exit 3) when more than this fraction of attempted ops
  /// missed their deadline. Negative = no budget gate.
  double deadline_budget = -1.0;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --config FILE [--mode load|smoke] [--dc N]\n"
      "          [--threads N]\n"
      "          [--connections N (pools per DC; a pool = a socket per "
      "server worker)]\n"
      "          [--pipeline W] [--duration-s S] [--pattern getput|txput]\n"
      "          [--gets-per-put N] [--tx-partitions N] [--think-us N]\n"
      "          [--value-size N] [--value-size-max N]\n"
      "          [--keys-per-partition N] [--key-offset N]\n"
      "          [--key-dist zipfian|uniform] [--theta T]\n"
      "          [--seed N] [--client-base N] [--out FILE] [--no-check]\n"
      "          [--expect-disruption] [--resilient]\n"
      "          [--op-deadline-us N] [--deadline-budget F]\n",
      argv0);
  return 4;
}

/// A payload size no larger than the servers accept: they refuse a PUT whose
/// value exceeds proto::kMaxValueBytes.
bool parse_value_size(const char* flag, const char* text, std::uint32_t* out) {
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  if (v > proto::kMaxValueBytes) {
    std::fprintf(stderr, "loadgen: %s %s exceeds the %zu-byte value limit\n",
                 flag, text, proto::kMaxValueBytes);
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(4);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--config") == 0) {
      args->config_path = value();
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      args->mode = value();
    } else if (std::strcmp(argv[i], "--dc") == 0) {
      args->dc = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      // Closed-loop client sessions per DC, each one driving thread.
      args->clients_per_dc =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      args->connections_per_dc =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      if (args->connections_per_dc == 0) args->connections_per_dc = 1;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      args->pipeline =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
      if (args->pipeline == 0) args->pipeline = 1;
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      args->duration_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--pattern") == 0) {
      args->pattern = value();
    } else if (std::strcmp(argv[i], "--gets-per-put") == 0) {
      args->gets_per_put =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--tx-partitions") == 0) {
      args->tx_partitions =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--think-us") == 0) {
      args->think_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--value-size") == 0) {
      if (!parse_value_size("--value-size", value(), &args->value_size)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--value-size-max") == 0) {
      if (!parse_value_size("--value-size-max", value(),
                            &args->value_size_max)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--keys-per-partition") == 0) {
      args->keys_per_partition = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--key-offset") == 0) {
      args->key_offset = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--key-dist") == 0) {
      args->key_dist = value();
    } else if (std::strcmp(argv[i], "--theta") == 0) {
      args->zipf_theta = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args->seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--client-base") == 0) {
      args->client_base = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args->out_path = value();
    } else if (std::strcmp(argv[i], "--no-check") == 0) {
      args->check = false;
    } else if (std::strcmp(argv[i], "--expect-disruption") == 0) {
      args->expect_disruption = true;
    } else if (std::strcmp(argv[i], "--resilient") == 0) {
      args->resilient = true;
    } else if (std::strcmp(argv[i], "--op-deadline-us") == 0) {
      args->op_deadline_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--deadline-budget") == 0) {
      args->deadline_budget = std::strtod(value(), nullptr);
    } else {
      return false;
    }
  }
  if (args->key_dist == "uniform") {
    args->zipf_theta = 0.0;  // uniform = zipf with no skew
  } else if (args->key_dist != "zipfian") {
    std::fprintf(stderr, "loadgen: unknown --key-dist '%s'\n",
                 args->key_dist.c_str());
    return false;
  }
  return args->config_path != nullptr;
}

Duration now_us() { return rt::steady_now_us(); }

struct OpCounts {
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> txs{0};
  std::atomic<std::uint64_t> failures{0};
};

/// Per-thread latency histograms, merged after the run (Histogram is not
/// thread-safe).
struct ThreadLatencies {
  stats::Histogram get_us;
  stats::Histogram put_us;
  stats::Histogram tx_us;
  /// Server park time of every completed RO-TX (its longest slice wait),
  /// and how many of them parked at all.
  stats::Histogram tx_blocked_us;
  std::uint64_t txs_blocked = 0;

  void record_tx(Duration latency_us, Duration blocked_us) {
    tx_us.record(latency_us);
    tx_blocked_us.record(blocked_us);
    if (blocked_us > 0) ++txs_blocked;
  }
};

void run_client(net::TcpSession& session, const workload::WorkloadConfig& wl,
                std::uint32_t partitions, std::uint64_t seed,
                Duration deadline, Duration op_deadline_us, OpCounts& ops,
                ThreadLatencies& lat) {
  workload::Generator gen(wl, partitions, seed);
  while (now_us() < deadline) {
    const workload::Op op = gen.next();
    const Duration start = now_us();
    bool ok = false;
    switch (op.type) {
      case workload::OpType::kGet:
        ok = session.get_id(op.keys.front(), op_deadline_us).ok;
        if (ok) {
          ++ops.gets;
          lat.get_us.record(now_us() - start);
        }
        break;
      case workload::OpType::kPut:
        ok = session.put_id(op.keys.front(), op.value, op_deadline_us).ok;
        if (ok) {
          ++ops.puts;
          lat.put_us.record(now_us() - start);
        }
        break;
      case workload::OpType::kRoTx: {
        const auto res = session.ro_tx_ids(op.keys, op_deadline_us);
        ok = res.ok;
        if (ok) {
          ++ops.txs;
          lat.record_tx(now_us() - start, res.blocked_us);
        }
        break;
      }
    }
    if (!ok) {
      ++ops.failures;
      continue;  // session may have gone pessimistic; keep driving
    }
    if (wl.think_time_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(wl.think_time_us));
    }
  }
}

/// One session's slot inside a pipelined driver thread.
struct PipelinedClient {
  net::TcpSession* session = nullptr;
  std::unique_ptr<workload::Generator> gen;
  ThreadLatencies* lat = nullptr;
  workload::Op op;
  Duration op_start = 0;
  Duration not_before = 0;  // think-time gate for the next op
  bool active = false;      // an op is in flight on the session
};

/// Drives `clients` round-robin through the non-blocking session API: every
/// pass starts ops on idle sessions (until the run deadline) and pumps the
/// in-flight ones, so one thread keeps |clients| ops outstanding across the
/// shared pool connections. After the deadline no new ops start, but
/// in-flight ones are drained to completion (their own op deadline bounds
/// the grace period).
void run_pipelined(std::vector<PipelinedClient>& clients,
                   const workload::WorkloadConfig& wl, Duration deadline,
                   Duration op_deadline_us, OpCounts& ops) {
  while (true) {
    bool progress = false;
    bool any_active = false;
    for (PipelinedClient& c : clients) {
      if (!c.active) {
        const Duration now = now_us();
        if (now >= deadline || now < c.not_before) continue;
        c.op = c.gen->next();
        c.op_start = now;
        bool started = false;
        switch (c.op.type) {
          case workload::OpType::kGet:
            started = c.session->start_get_id(c.op.keys.front(),
                                              op_deadline_us);
            break;
          case workload::OpType::kPut:
            started = c.session->start_put_id(c.op.keys.front(), c.op.value,
                                              op_deadline_us);
            break;
          case workload::OpType::kRoTx:
            started = c.session->start_ro_tx_ids(c.op.keys, op_deadline_us);
            break;
        }
        if (!started) continue;  // unreachable: the session was idle
        c.active = true;
        progress = true;
      }
      if (c.active && c.session->pump()) {
        bool ok = false;
        switch (c.op.type) {
          case workload::OpType::kGet:
            ok = c.session->finish_get().ok;
            if (ok) {
              ++ops.gets;
              c.lat->get_us.record(now_us() - c.op_start);
            }
            break;
          case workload::OpType::kPut:
            ok = c.session->finish_put().ok;
            if (ok) {
              ++ops.puts;
              c.lat->put_us.record(now_us() - c.op_start);
            }
            break;
          case workload::OpType::kRoTx: {
            const auto res = c.session->finish_tx();
            ok = res.ok;
            if (ok) {
              ++ops.txs;
              c.lat->record_tx(now_us() - c.op_start, res.blocked_us);
            }
            break;
          }
        }
        if (!ok) ++ops.failures;
        if (ok && wl.think_time_us > 0) {
          c.not_before = now_us() + wl.think_time_us;
        }
        c.active = false;
        progress = true;
      }
      any_active |= c.active;
    }
    if (!any_active && now_us() >= deadline) break;
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

/// The "model name" line of /proc/cpuinfo ("unknown" when absent): a
/// baseline names the machine it was measured on.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) break;
    model = colon + 1;
    const auto first = model.find_first_not_of(" \t");
    const auto last = model.find_last_not_of(" \t\n");
    model = first == std::string::npos ? "unknown"
                                       : model.substr(first, last - first + 1);
    break;
  }
  std::fclose(f);
  // Kept JSON-safe without escaping.
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model;
}

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Replays all histories; returns checker verdict (violations printed).
struct CheckOutcome {
  bool complete = true;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  double check_s = 0.0;  // wall time of the replay
};

CheckOutcome check_histories(
    const net::ClusterLayout& layout,
    const std::vector<checker::SessionHistory>& histories) {
  const Duration start = now_us();
  checker::HistoryChecker checker(layout.topology.num_dcs);
  const auto result = checker::replay_history(histories, checker);
  CheckOutcome outcome;
  outcome.check_s = static_cast<double>(now_us() - start) / 1e6;
  outcome.complete = result.complete;
  outcome.checks = checker.checks_performed();
  outcome.violations = checker.violations().size();
  if (!result.complete) {
    std::fprintf(stderr, "loadgen: history replay incomplete: %s\n",
                 result.error.c_str());
  }
  for (const std::string& v : checker.violations()) {
    std::fprintf(stderr, "loadgen: VIOLATION: %s\n", v.c_str());
  }
  return outcome;
}

int run_load(const Args& args, const net::ClusterLayout& layout) {
  const auto& topo = layout.topology;

  workload::WorkloadConfig wl;
  wl.pattern = args.pattern == "txput" ? workload::Pattern::kTxPut
                                       : workload::Pattern::kGetPut;
  wl.gets_per_put = args.gets_per_put;
  wl.tx_partitions = std::min(args.tx_partitions, topo.partitions_per_dc);
  wl.think_time_us = args.think_us;
  wl.zipf_theta = args.zipf_theta;
  wl.keys_per_partition = args.keys_per_partition;
  wl.key_offset = args.key_offset;
  wl.value_size = args.value_size;
  wl.value_size_max = args.value_size_max;

  std::vector<DcId> dcs;
  if (args.dc >= 0) {
    dcs.push_back(static_cast<DcId>(args.dc));
  } else {
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) dcs.push_back(dc);
  }

  // --connections pools per DC: one pool = one socket per server worker
  // (the partitions a worker hosts share it), driven by the threads of the
  // sessions on it; client sessions round-robin across their DC's pools.
  std::vector<std::unique_ptr<net::TcpClientPool>> pools;
  for (const DcId dc : dcs) {
    for (std::uint32_t c = 0; c < args.connections_per_dc; ++c) {
      pools.push_back(std::make_unique<net::TcpClientPool>(layout, dc));
      if (args.resilient) {
        net::ClientResilience res;
        res.enabled = true;
        pools.back()->set_resilience(res);
      }
      pools.back()->start();
    }
  }
  for (auto& pool : pools) {
    if (!pool->wait_connected(10'000'000)) {
      std::fprintf(stderr, "loadgen: cannot reach all partitions of DC %u\n",
                   pool->dc());
      return 4;
    }
  }

  OpCounts ops;
  std::vector<ThreadLatencies> lats(dcs.size() * args.clients_per_dc);
  std::vector<std::thread> threads;
  ClientId next_client = args.client_base;
  const Duration start = now_us();
  const Duration deadline =
      start + static_cast<Duration>(args.duration_s * 1e6);
  std::size_t t = 0;
  // Declared at run_load scope: driver threads hold pointers into the
  // groups until join(), so the storage must outlive the if/else below.
  std::vector<std::vector<PipelinedClient>> groups;
  if (args.pipeline <= 1) {
    for (std::size_t d = 0; d < dcs.size(); ++d) {
      for (std::uint32_t i = 0; i < args.clients_per_dc; ++i, ++t) {
        const std::size_t pool_idx =
            d * args.connections_per_dc + i % args.connections_per_dc;
        net::TcpSession* session = &pools[pool_idx]->connect(next_client++);
        const std::uint64_t seed = args.seed * 1'000'003 + t;
        threads.emplace_back([&, session, seed, t] {
          run_client(*session, wl, topo.partitions_per_dc, seed, deadline,
                     args.op_deadline_us, ops, lats[t]);
        });
      }
    }
  } else {
    // Pipelined: every driver thread owns up to --pipeline sessions of one
    // DC and multiplexes them over the DC's pools, so each pool connection
    // carries several in-flight ops at once.
    for (std::size_t d = 0; d < dcs.size(); ++d) {
      for (std::uint32_t i = 0; i < args.clients_per_dc; ++i, ++t) {
        if (i % args.pipeline == 0) groups.emplace_back();
        const std::size_t pool_idx =
            d * args.connections_per_dc + i % args.connections_per_dc;
        PipelinedClient c;
        c.session = &pools[pool_idx]->connect(next_client++);
        c.gen = std::make_unique<workload::Generator>(
            wl, topo.partitions_per_dc, args.seed * 1'000'003 + t);
        c.lat = &lats[t];
        groups.back().push_back(std::move(c));
      }
    }
    for (auto& group : groups) {
      threads.emplace_back([&, clients = &group] {
        run_pipelined(*clients, wl, deadline, args.op_deadline_us, ops);
      });
    }
  }
  for (auto& thread : threads) thread.join();
  const double elapsed_s = static_cast<double>(now_us() - start) / 1e6;

  stats::Histogram get_us;
  stats::Histogram put_us;
  stats::Histogram tx_us;
  stats::Histogram tx_blocked_us;
  std::uint64_t txs_blocked = 0;
  for (const ThreadLatencies& l : lats) {
    get_us.merge(l.get_us);
    put_us.merge(l.put_us);
    tx_us.merge(l.tx_us);
    tx_blocked_us.merge(l.tx_blocked_us);
    txs_blocked += l.txs_blocked;
  }
  const double tx_blocked_ratio =
      tx_blocked_us.count() > 0 ? static_cast<double>(txs_blocked) /
                                      static_cast<double>(tx_blocked_us.count())
                                : 0.0;

  std::vector<checker::SessionHistory> histories;
  net::ClientResilienceStats rstats;
  // The pools' own sockets: how many they dialed, and how many frames each
  // of their sendmsg calls carried (requests to several partitions of one
  // server worker share a socket, so they can share a call).
  net::TransportStats client_net;
  std::size_t client_connections = 0;
  for (const auto& pool : pools) {
    auto h = pool->histories();
    histories.insert(histories.end(), h.begin(), h.end());
    rstats += pool->resilience_stats();
    client_net += pool->transport_stats();
    client_connections += pool->connections().size();
  }
  const double client_frames_per_call =
      client_net.sendmsg_calls > 0
          ? static_cast<double>(client_net.sendmsg_frames) /
                static_cast<double>(client_net.sendmsg_calls)
          : 0.0;
  for (auto& pool : pools) pool->stop();

  CheckOutcome verdict;
  if (args.check) verdict = check_histories(layout, histories);

  const std::uint64_t total = ops.gets + ops.puts + ops.txs;
  const std::uint64_t attempted = total + ops.failures.load();
  const double failure_rate =
      attempted > 0
          ? static_cast<double>(ops.failures.load()) / attempted
          : 0.0;
  std::size_t history_events = 0;
  for (const auto& h : histories) history_events += h.events.size();
  // Percentile fields come from the shared stats helper so loadgen, the
  // tail-latency baseline and any future report agree on which quantiles a
  // latency block carries (p50/p99/p999).
  const std::string lat_json = stats::latency_json_fields("get", get_us) +
                               "," + stats::latency_json_fields("put", put_us) +
                               "," + stats::latency_json_fields("tx", tx_us);
  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"tcp_loadgen\",\"mode\":\"load\",\"system\":\"%s\","
      "\"dcs\":%u,\"partitions\":%u,\"clients_per_dc\":%u,"
      "\"connections_per_dc\":%u,\"pipeline\":%u,\"pattern\":\"%s\","
      "\"key_dist\":\"%s\",\"zipf_theta\":%.3f,\"keys_per_partition\":%llu,"
      "\"value_size\":%u,\"value_size_max\":%u,"
      "\"seed\":%llu,\"duration_s\":%.2f,\"ops\":%llu,\"ops_per_sec\":%.1f,"
      "\"gets\":%llu,\"puts\":%llu,\"ro_txs\":%llu,\"failures\":%llu,"
      "%s,\"tx_blocked_ratio\":%.4f,\"tx_blocked_us_p99\":%lld,"
      "\"history_events\":%zu,\"checks\":%llu,\"violations\":%llu,"
      "\"check_s\":%.3f,\"peak_rss_mb\":%.1f,"
      "\"resilient\":%s,\"op_deadline_us\":%lld,"
      "\"op_timeouts\":%llu,\"op_retries\":%llu,\"op_failovers\":%llu,"
      "\"op_overloaded\":%llu,\"breaker_opens\":%llu,"
      "\"deadline_exhausted\":%llu,\"reconnects\":%llu,"
      "\"client_connections\":%zu,\"client_sendmsg_frames_per_call\":%.3f,"
      "\"failure_rate\":%.6f,\"nproc\":%u,\"cpu_model\":\"%s\"}",
      system_flag(layout.system),
      topo.num_dcs, topo.partitions_per_dc,
      args.clients_per_dc, args.connections_per_dc, args.pipeline,
      args.pattern.c_str(), args.key_dist.c_str(), args.zipf_theta,
      static_cast<unsigned long long>(args.keys_per_partition),
      args.value_size, args.value_size_max,
      static_cast<unsigned long long>(args.seed), elapsed_s,
      static_cast<unsigned long long>(total),
      elapsed_s > 0 ? static_cast<double>(total) / elapsed_s : 0.0,
      static_cast<unsigned long long>(ops.gets.load()),
      static_cast<unsigned long long>(ops.puts.load()),
      static_cast<unsigned long long>(ops.txs.load()),
      static_cast<unsigned long long>(ops.failures.load()),
      lat_json.c_str(), tx_blocked_ratio,
      static_cast<long long>(tx_blocked_us.percentile(99)), history_events,
      static_cast<unsigned long long>(verdict.checks),
      static_cast<unsigned long long>(verdict.violations), verdict.check_s,
      peak_rss_mb(), args.resilient ? "true" : "false",
      static_cast<long long>(args.op_deadline_us),
      static_cast<unsigned long long>(rstats.timeouts),
      static_cast<unsigned long long>(rstats.retries),
      static_cast<unsigned long long>(rstats.failovers),
      static_cast<unsigned long long>(rstats.overloaded),
      static_cast<unsigned long long>(rstats.breaker_opens),
      static_cast<unsigned long long>(rstats.deadline_exhausted),
      static_cast<unsigned long long>(client_net.reconnects),
      client_connections,
      client_frames_per_call, failure_rate,
      std::thread::hardware_concurrency(), cpu_model().c_str());
  std::printf("%s\n", json);
  if (args.out_path != nullptr) {
    std::FILE* f = std::fopen(args.out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot open %s\n", args.out_path);
      return 4;
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }

  if (verdict.violations > 0) return 1;
  if (!verdict.complete && !args.expect_disruption) return 1;
  if (total == 0) return 2;  // even a disrupted run must complete some work
  if (args.deadline_budget >= 0.0 && failure_rate > args.deadline_budget) {
    std::fprintf(stderr,
                 "loadgen: deadline budget breached — %.4f of ops failed "
                 "their deadline (budget %.4f)\n",
                 failure_rate, args.deadline_budget);
    return 3;
  }
  if (ops.failures.load() > 0 && !args.expect_disruption &&
      args.deadline_budget < 0.0) {
    return 2;
  }
  return 0;
}

/// Poll `fn` until true or `timeout_us` elapsed.
template <typename Fn>
bool eventually(Duration timeout_us, Fn&& fn) {
  const Duration deadline = now_us() + timeout_us;
  while (now_us() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return fn();
}

int run_smoke(const Args& args, const net::ClusterLayout& layout) {
  const auto& topo = layout.topology;
  if (topo.num_dcs < 2) {
    std::fprintf(stderr, "loadgen: smoke mode needs >= 2 DCs\n");
    return 4;
  }
  std::vector<std::unique_ptr<net::TcpClientPool>> pools;
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    pools.push_back(std::make_unique<net::TcpClientPool>(layout, dc));
    pools.back()->start();
  }
  for (auto& pool : pools) {
    if (!pool->wait_connected(10'000'000)) {
      std::fprintf(stderr, "loadgen: cannot reach all partitions of DC %u\n",
                   pool->dc());
      return 4;
    }
  }
  ClientId next_client = args.client_base;
  int failures = 0;
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "loadgen: SMOKE FAIL: %s\n", what);
    ++failures;
  };

  // --- read-your-writes, single DC ---
  {
    net::TcpSession& s = pools[0]->connect(next_client++);
    if (!s.put("smoke:ryw", "v1").ok) fail("RYW put timed out");
    const auto got = s.get("smoke:ryw");
    if (!(got.ok && got.found && got.value == "v1")) {
      fail("read-your-writes: put not visible to its own session");
    }
  }

  // --- WC-DEP chain across DCs (photo/comment, §II-A) ---
  {
    net::TcpSession& alice = pools[0]->connect(next_client++);
    net::TcpSession& bob = pools[1]->connect(next_client++);
    const DcId carol_dc = topo.num_dcs >= 3 ? 2 : 1;
    net::TcpSession& carol = pools[carol_dc]->connect(next_client++);

    if (!alice.put("smoke:photo", "selfie").ok) fail("photo put timed out");
    if (!eventually(15'000'000, [&] {
          const auto got = bob.get("smoke:photo");
          return got.ok && got.found;
        })) {
      fail("photo never replicated to DC 1");
    }
    if (!bob.put("smoke:comment", "nice!").ok) fail("comment put timed out");
    if (!eventually(15'000'000, [&] {
          const auto got = carol.get("smoke:comment");
          return got.ok && got.found;
        })) {
      fail("comment never replicated");
    }
    const auto photo = carol.get("smoke:photo");
    if (!(photo.ok && photo.found && photo.value == "selfie")) {
      fail("WC-DEP violated: comment visible but photo missing");
    }
  }

  // --- eventual cross-DC convergence of a single write ---
  {
    net::TcpSession& writer = pools[0]->connect(next_client++);
    if (!writer.put("smoke:geo", "hello").ok) fail("geo put timed out");
    for (DcId dc = 1; dc < topo.num_dcs; ++dc) {
      net::TcpSession& reader = pools[dc]->connect(next_client++);
      if (!eventually(15'000'000, [&] {
            const auto got = reader.get("smoke:geo");
            return got.ok && got.found && got.value == "hello";
          })) {
        fail("write never became visible in a remote DC");
      }
    }
  }

  std::vector<checker::SessionHistory> histories;
  for (const auto& pool : pools) {
    auto h = pool->histories();
    histories.insert(histories.end(), h.begin(), h.end());
  }
  for (auto& pool : pools) pool->stop();

  CheckOutcome verdict;
  if (args.check) verdict = check_histories(layout, histories);
  if (!verdict.complete || verdict.violations > 0) return 1;
  if (failures > 0) return 2;
  std::printf(
      "{\"bench\":\"tcp_loadgen\",\"mode\":\"smoke\",\"system\":\"%s\","
      "\"dcs\":%u,\"partitions\":%u,\"checks\":%llu,\"violations\":0,"
      "\"result\":\"pass\"}\n",
      system_flag(layout.system), topo.num_dcs, topo.partitions_per_dc,
      static_cast<unsigned long long>(verdict.checks));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage(argv[0]);

  std::string error;
  auto layout = net::load_cluster_config(args.config_path, &error);
  if (!layout.has_value()) {
    std::fprintf(stderr, "loadgen: bad config: %s\n", error.c_str());
    return 4;
  }

  if (args.mode == "load") return run_load(args, *layout);
  if (args.mode == "smoke") return run_smoke(args, *layout);
  std::fprintf(stderr, "loadgen: unknown mode '%s'\n", args.mode.c_str());
  return 4;
}
