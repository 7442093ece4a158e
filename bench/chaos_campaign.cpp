// Chaos soak over the REAL TCP deployment, in one process.
//
// Where bench/fuzz_campaign drives the simulator's fault fabric, this runner
// drives the deployment classes poccd is built from — TcpNodeHost per DC
// behind real localhost sockets, TcpClientPool sessions with the resilience
// layer on — while net::ChaosLink degrades the actual wire: replication
// links get seed-deterministic delay/jitter/loss-stall/reorder plus the
// timed partition windows of a fault::FaultPlan schedule; client links
// additionally get duplicate frames and spontaneous resets (exercising the
// partitions' per-client op_id entries end to end). The schedule's kCrash
// windows are executed for real: the victim host is crash_stop()ped
// (kill -9 equivalent — unsynced WAL tail and staged batches die) and
// restarted on the same port + data dir, so every run crosses WAL replay
// and the peer recovery handshake.
//
// Pass criteria (exit 1 on any miss):
//   * the full client history replays through the HistoryChecker with ZERO
//     causal-consistency violations — always, no matter the chaos;
//   * the replay is complete, unless ops were abandoned mid-disruption (an
//     applied PUT whose reply died with a crash leaves an unregistered
//     version — the loadgen's --expect-disruption rationale);
//   * the op failure rate stays within --failure-budget;
//   * at least some work completed (a wedged cluster must not pass);
//   * no host transport refused a frame (transport_drops = send_overflows +
//     down_buffer_drops, crashed incarnations included): the outbox is the
//     only buffer behind a replication link, so a refusal is a hole in the
//     lossless FIFO channel the protocol assumes.
//
// Determinism: --seed fixes the fault schedule (the plan hash is printed
// and embedded in the artifact, exactly like the fuzz repro line). Wall
// clock interleaving of course varies run to run; the *schedule* does not.
//
//   chaos_campaign [--seed N] [--system pocc|cure|ha_pocc] [--duration-s S]
//                  [--horizon-s S] [--sessions N] [--no-crashes]
//                  [--failure-budget F] [--out FILE] [--verbose]
//
// CI runs this nightly with a date-derived seed next to the fuzz campaign;
// scripts/chaos_soak.sh covers the same chaos across real process
// boundaries via pocc_chaosproxy.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/history_checker.hpp"
#include "common/rng.hpp"
#include "net/chaos.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "runtime/rt_node.hpp"

namespace {

using namespace pocc;

struct Options {
  std::uint64_t seed = 1;
  SystemKind system = SystemKind::kPocc;
  double duration_s = 8.0;
  double horizon_s = 4.0;
  int sessions_per_dc = 3;
  bool crashes = true;
  double failure_budget = 0.05;
  Duration op_deadline_us = 15'000'000;
  std::string out_path;
  bool verbose = false;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--system pocc|cure|ha_pocc] [--duration-s S]\n"
      "          [--horizon-s S] [--sessions N] [--no-crashes]\n"
      "          [--failure-budget F] [--op-deadline-us N] [--out FILE]\n"
      "          [--verbose]\n",
      argv0);
  return 4;
}

net::ClusterLayout chaos_layout(SystemKind system) {
  net::ClusterLayout layout;
  layout.topology.num_dcs = 3;
  layout.topology.partitions_per_dc = 2;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  layout.system = system;
  layout.protocol.heartbeat_interval_us = 5'000;
  layout.protocol.stabilization_interval_us = 20'000;
  layout.protocol.gc_interval_us = 200'000;
  layout.protocol.block_timeout_us = 2'000'000;
  return layout;
}

/// Stationary degradation of the server-to-server links (the schedule
/// layers partitions and degrade windows on top).
net::ChaosProfile server_profile() {
  net::ChaosProfile p;
  p.base_delay_us = 2'000;
  p.jitter_mean_us = 1'000;
  p.loss_p = 0.01;
  p.rto_penalty_us = 50'000;
  p.reorder_window_us = 2'000;
  p.bandwidth_bytes_per_s = 0;  // partitions + loss stalls dominate
  return p;
}

/// Client links: mild delay, but duplicates and resets — the pointy end of
/// the idempotent-retry machinery.
net::ChaosProfile client_profile() {
  net::ChaosProfile p;
  p.base_delay_us = 300;
  p.jitter_mean_us = 300;
  p.dup_p = 0.02;
  p.reset_p = 0.001;
  return p;
}

struct OpCounters {
  std::atomic<std::uint64_t> gets{0}, puts{0}, txs{0}, failures{0};
};

/// One closed-loop mixed-workload session until `stop`.
void drive_session(net::TcpSession& s, std::uint64_t seed, Duration deadline,
                   std::atomic<bool>& stop, OpCounters& ops) {
  Rng rng(seed);
  std::uint64_t n = 0;
  const auto some_key = [&rng] {
    std::string key = "chaos:";
    key += std::to_string(rng.uniform(16));
    return key;
  };
  while (!stop.load(std::memory_order_relaxed)) {
    const std::string key = some_key();
    const std::uint64_t kind = rng.uniform(10);
    if (kind < 5) {
      if (s.get(key, deadline).ok) ++ops.gets; else ++ops.failures;
    } else if (kind < 9) {
      std::string value = "v";
      value += std::to_string(++n);
      if (s.put(key, std::move(value), deadline).ok) ++ops.puts;
      else ++ops.failures;
    } else {
      if (s.ro_tx({key, some_key()}, deadline).ok) ++ops.txs;
      else ++ops.failures;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(4);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(value(), nullptr, 0);
    } else if (std::strcmp(argv[i], "--system") == 0) {
      const auto system = pocc::parse_system(value());
      if (!system.has_value()) return usage(argv[0]);
      opt.system = *system;
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      opt.duration_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--horizon-s") == 0) {
      opt.horizon_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      opt.sessions_per_dc = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--no-crashes") == 0) {
      opt.crashes = false;
    } else if (std::strcmp(argv[i], "--failure-budget") == 0) {
      opt.failure_budget = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--op-deadline-us") == 0) {
      opt.op_deadline_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opt.out_path = value();
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }

  net::ClusterLayout layout = chaos_layout(opt.system);
  const auto& topo = layout.topology;
  const auto schedule = std::make_shared<const net::ChaosSchedule>(
      opt.seed, topo, static_cast<Duration>(opt.horizon_s * 1e6),
      static_cast<Duration>(opt.duration_s * 1e6));
  std::printf("chaos_campaign: system=%s seed=%llu plan=0x%llx "
              "duration=%.1fs crashes=%zu%s\n",
              pocc::system_flag(opt.system),
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(schedule->plan_hash()),
              opt.duration_s, schedule->crashes().size(),
              opt.crashes ? "" : " (not executed)");
  if (opt.verbose) std::printf("%s", schedule->plan_text().c_str());

  // Durable roots: every host gets one so crash windows cross real WAL
  // replay on restart.
  namespace fs = std::filesystem;
  const fs::path data_root =
      fs::temp_directory_path() /
      ("pocc_chaos_" + std::to_string(::getpid()) + "_" +
       std::to_string(opt.seed));
  fs::create_directories(data_root);

  // --- cluster: one multi-partition host per DC (the poccd topology) ---
  std::vector<std::unique_ptr<net::TcpNodeHost>> hosts;
  std::vector<std::uint16_t> ports;
  const auto host_options = [&](DcId dc) {
    net::TcpNodeHost::Options ho;
    ho.listen_port = dc < ports.size() ? ports[dc] : 0;
    ho.seed = opt.seed * 31 + dc;
    ho.data_dir = (data_root / ("dc" + std::to_string(dc))).string();
    ho.max_inbox_messages = 4096;  // bounded admission under chaos
    return ho;
  };
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    net::ProcessSpec spec;
    spec.dc = dc;
    for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
      spec.parts.push_back(p);
    }
    spec.threads = 2;
    spec.host = "127.0.0.1";
    hosts.push_back(
        std::make_unique<net::TcpNodeHost>(spec, layout, host_options(dc)));
    spec.port = hosts.back()->port();
    ports.push_back(spec.port);
    layout.processes.push_back(spec);
    for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
      layout.nodes.push_back(
          net::NodeAddress{NodeId{dc, p}, "127.0.0.1", spec.port});
    }
  }
  for (auto& host : hosts) host->start(layout.processes);

  // Arm the replication links. Every directed (src, dst) pair gets its own
  // deterministic ChaosLink bound to the shared schedule; chaos time 0 is
  // now.
  const Timestamp chaos_start = rt::steady_now_us();
  const auto arm_host = [&](DcId src) {
    for (DcId dst = 0; dst < topo.num_dcs; ++dst) {
      if (dst == src) continue;
      auto link = std::make_shared<net::ChaosLink>(
          opt.seed ^ (0x9e3779b97f4a7c15ULL * (src * 16 + dst + 1)),
          server_profile());
      link->bind_schedule(schedule, src, dst, chaos_start);
      hosts[src]->arm_chaos(dst, std::move(link));
    }
  };
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) arm_host(dc);

  // --- client pools: resilience ON, chaos on the client links too ---
  std::vector<std::unique_ptr<net::TcpClientPool>> pools;
  std::uint64_t client_link_n = 0;
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    pools.push_back(std::make_unique<net::TcpClientPool>(layout, dc));
    net::ClientResilience res;
    res.enabled = true;
    pools.back()->set_resilience(res);
    pools.back()->start();
    if (!pools.back()->wait_connected(10'000'000)) {
      std::fprintf(stderr, "chaos_campaign: pool %u never connected\n", dc);
      return 1;
    }
    for (const net::ConnId conn : pools.back()->connections()) {
      pools.back()->transport().set_chaos(
          conn, std::make_shared<net::ChaosLink>(
                    opt.seed ^ (0xc11e47'0000ULL + ++client_link_n),
                    client_profile()));
    }
  }

  // --- load ---
  std::atomic<bool> stop{false};
  OpCounters ops;
  std::vector<std::thread> threads;
  ClientId next_client = 1;
  for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
    for (int i = 0; i < opt.sessions_per_dc; ++i) {
      net::TcpSession& s = pools[dc]->connect(next_client++);
      threads.emplace_back([&, dc, i] {
        drive_session(s, (static_cast<std::uint64_t>(dc) << 8) | i,
                      opt.op_deadline_us, stop, ops);
      });
    }
  }

  // --- controller: execute the schedule's crash windows for real ---
  std::uint64_t crashes_executed = 0;
  const auto transport_drops_of = [](const net::TcpNodeHost& host) {
    const net::TransportStats ts = host.transport_stats();
    return ts.send_overflows + ts.down_buffer_drops;
  };
  std::uint64_t transport_drops = 0;  // summed over every host incarnation
  const auto until = [&](Timestamp chaos_t) {
    const Timestamp now = rt::steady_now_us() - chaos_start;
    if (chaos_t > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(chaos_t - now));
    }
  };
  if (opt.crashes) {
    for (const net::ChaosSchedule::CrashWindow& w : schedule->crashes()) {
      if (w.at >= static_cast<Duration>(opt.duration_s * 1e6)) break;
      until(w.at);
      const DcId dc = w.node.dc;
      if (opt.verbose) {
        std::printf("chaos_campaign: crashing dc%u for %lld us\n", dc,
                    static_cast<long long>(w.duration));
      }
      hosts[dc]->crash_stop();
      transport_drops += transport_drops_of(*hosts[dc]);
      hosts[dc].reset();
      until(w.at + w.duration);
      net::ProcessSpec spec = layout.processes[dc];
      spec.port = 0;  // the option carries the bind port
      hosts[dc] = std::make_unique<net::TcpNodeHost>(spec, layout,
                                                     host_options(dc));
      if (hosts[dc]->port() != ports[dc]) {
        std::fprintf(stderr, "chaos_campaign: dc%u lost its port on restart\n",
                     dc);
        return 1;
      }
      hosts[dc]->start(layout.processes);
      arm_host(dc);
      ++crashes_executed;
    }
  }
  until(static_cast<Duration>(opt.duration_s * 1e6));
  stop.store(true);
  for (auto& t : threads) t.join();

  // --- verdict ---
  net::ClientResilienceStats rstats;
  std::vector<checker::SessionHistory> histories;
  for (auto& pool : pools) {
    rstats += pool->resilience_stats();
    auto h = pool->histories();
    histories.insert(histories.end(), h.begin(), h.end());
  }
  std::uint64_t overloaded_replies = 0, deduped = 0;
  std::uint64_t chaos_delayed = 0, chaos_dups = 0, chaos_resets = 0;
  for (const auto& host : hosts) {
    overloaded_replies += host->overloaded_replies();
    deduped += host->group().deduped_requests();
    transport_drops += transport_drops_of(*host);
    const net::TransportStats ts = host->transport_stats();
    chaos_delayed += ts.chaos_delayed;
    chaos_dups += ts.chaos_duplicates;
    chaos_resets += ts.chaos_resets;
  }
  for (const auto& pool : pools) {
    const net::TransportStats ts = pool->transport_stats();
    chaos_delayed += ts.chaos_delayed;
    chaos_dups += ts.chaos_duplicates;
    chaos_resets += ts.chaos_resets;
  }

  checker::HistoryChecker checker(topo.num_dcs);
  const auto replay = checker::replay_history(histories, checker);
  const std::uint64_t violations = checker.violations().size();
  const std::uint64_t completed =
      ops.gets.load() + ops.puts.load() + ops.txs.load();
  const std::uint64_t failures = ops.failures.load();
  const double failure_rate =
      completed + failures == 0
          ? 1.0
          : static_cast<double>(failures) / (completed + failures);

  bool ok = true;
  if (violations > 0) {
    ok = false;
    std::fprintf(stderr, "chaos_campaign: %llu VIOLATIONS, first: %s\n",
                 static_cast<unsigned long long>(violations),
                 checker.violations().front().c_str());
  }
  // An incomplete replay is only legitimate when ops were actually
  // abandoned mid-disruption; with zero failures it means lost history.
  if (!replay.complete && failures == 0) {
    ok = false;
    std::fprintf(stderr, "chaos_campaign: incomplete replay with no failed "
                         "ops — %s\n",
                 replay.error.c_str());
  }
  if (completed == 0) {
    ok = false;
    std::fprintf(stderr, "chaos_campaign: no operation completed\n");
  }
  if (failure_rate > opt.failure_budget) {
    ok = false;
    std::fprintf(stderr,
                 "chaos_campaign: failure budget breached — %.4f of ops "
                 "failed (budget %.4f)\n",
                 failure_rate, opt.failure_budget);
  }
  if (transport_drops > 0) {
    ok = false;
    std::fprintf(stderr,
                 "chaos_campaign: %llu frames refused by a host transport\n",
                 static_cast<unsigned long long>(transport_drops));
  }

  std::printf(
      "[%s] ops=%llu failures=%llu rate=%.4f retries=%llu timeouts=%llu "
      "failovers=%llu overloaded=%llu deduped=%llu breaker_opens=%llu "
      "crashes=%llu chaos(delayed=%llu dups=%llu resets=%llu) "
      "transport_drops=%llu checks=%llu violations=%llu "
      "complete=%d\n",
      ok ? "ok" : "FAIL", static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failures), failure_rate,
      static_cast<unsigned long long>(rstats.retries),
      static_cast<unsigned long long>(rstats.timeouts),
      static_cast<unsigned long long>(rstats.failovers),
      static_cast<unsigned long long>(overloaded_replies),
      static_cast<unsigned long long>(deduped),
      static_cast<unsigned long long>(rstats.breaker_opens),
      static_cast<unsigned long long>(crashes_executed),
      static_cast<unsigned long long>(chaos_delayed),
      static_cast<unsigned long long>(chaos_dups),
      static_cast<unsigned long long>(chaos_resets),
      static_cast<unsigned long long>(transport_drops),
      static_cast<unsigned long long>(checker.checks_performed()),
      static_cast<unsigned long long>(violations), replay.complete ? 1 : 0);
  if (!ok) {
    std::printf("    REPRO: chaos_campaign --system %s --seed %llu "
                "--duration-s %.1f --horizon-s %.1f --sessions %d%s\n",
                pocc::system_flag(opt.system),
                static_cast<unsigned long long>(opt.seed), opt.duration_s,
                opt.horizon_s, opt.sessions_per_dc,
                opt.crashes ? "" : " --no-crashes");
  }

  if (!opt.out_path.empty()) {
    std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\"bench\":\"chaos_campaign\",\"system\":\"%s\",\"seed\":%llu,"
          "\"plan_hash\":\"0x%llx\",\"duration_s\":%.2f,\"sessions\":%d,"
          "\"ops\":%llu,\"failures\":%llu,\"failure_rate\":%.4f,"
          "\"op_retries\":%llu,\"op_timeouts\":%llu,\"op_failovers\":%llu,"
          "\"op_overloaded\":%llu,\"deduped\":%llu,\"breaker_opens\":%llu,"
          "\"deadline_exhausted\":%llu,\"crashes\":%llu,"
          "\"chaos_delayed\":%llu,\"chaos_duplicates\":%llu,"
          "\"chaos_resets\":%llu,\"transport_drops\":%llu,"
          "\"checks\":%llu,\"violations\":%llu,\"complete\":%s,\"ok\":%s}\n",
          pocc::system_flag(opt.system),
          static_cast<unsigned long long>(opt.seed),
          static_cast<unsigned long long>(schedule->plan_hash()),
          opt.duration_s, opt.sessions_per_dc,
          static_cast<unsigned long long>(completed),
          static_cast<unsigned long long>(failures), failure_rate,
          static_cast<unsigned long long>(rstats.retries),
          static_cast<unsigned long long>(rstats.timeouts),
          static_cast<unsigned long long>(rstats.failovers),
          static_cast<unsigned long long>(rstats.overloaded),
          static_cast<unsigned long long>(deduped),
          static_cast<unsigned long long>(rstats.breaker_opens),
          static_cast<unsigned long long>(rstats.deadline_exhausted),
          static_cast<unsigned long long>(crashes_executed),
          static_cast<unsigned long long>(chaos_delayed),
          static_cast<unsigned long long>(chaos_dups),
          static_cast<unsigned long long>(chaos_resets),
          static_cast<unsigned long long>(transport_drops),
          static_cast<unsigned long long>(checker.checks_performed()),
          static_cast<unsigned long long>(violations),
          replay.complete ? "true" : "false", ok ? "true" : "false");
      std::fclose(f);
    }
  }

  for (auto& pool : pools) pool->stop();
  for (auto& host : hosts) {
    if (host != nullptr) host->stop();
  }
  std::error_code ec;
  fs::remove_all(data_root, ec);
  return ok ? 0 : 1;
}
