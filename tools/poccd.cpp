// poccd — the partitions of one data center as a standalone networked
// server process, pinned onto a pool of worker threads. A real deployment
// runs one of these per DC (the config's group `node` lines), all reading
// the same cluster config file:
//
//   poccd --config cluster.cfg --dc 0 [--threads N]
//         [--system pocc|cure|ha_pocc|scalar_pocc] [--seed N] [--verbose]
//         [--data-dir DIR] [--no-durability] [--max-inbox N]
//         [--metrics-addr HOST:PORT] [--event-backend epoll]
//
// --dc selects the config's one `node dc=N ...` line this process serves.
// --threads overrides the config's worker count for this process.
// --event-backend accepts only epoll, the one readiness backend; the flag
// stays so existing launch scripts keep working.
// --data-dir enables the per-partition WAL + checkpoints under DIR (the
// process recovers from it after a crash — kill -9 included — rebuilding the
// lost replication suffix from peer DCs before admitting clients);
// --no-durability makes the omission of --data-dir explicit in scripts.
//
// The process serves until SIGINT/SIGTERM, then prints an exit stats line
// aggregated over every hosted partition engine. Engine clocks are aligned
// to CLOCK_REALTIME at startup so that update timestamps agree across
// processes to NTP precision — the paper's loose synchronization assumption
// (§IV); correctness never depends on it.
// --max-inbox bounds each worker's admission queue: past it, client requests
// are refused with Overloaded replies instead of queueing without bound
// (0 = unbounded, the default).
// --metrics-addr serves /metrics (Prometheus text format), /healthz and
// /readyz on an embedded HTTP endpoint; the SIGUSR2 live dump and the exit
// stats line render the SAME stats registry, so the three surfaces can never
// disagree about what the process counted.
#include <pthread.h>
#include <signal.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <system_error>

#include "net/tcp_node_host.hpp"
#include "runtime/rt_node.hpp"
#include "stats/registry.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_stats = 0;

void handle_signal(int /*sig*/) { g_stop = 1; }

void handle_dump(int /*sig*/) { g_dump_stats = 1; }

pocc::Timestamp realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<pocc::Timestamp>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config FILE --dc N [--threads N]\n"
               "          [--system pocc|cure|ha_pocc|scalar_pocc] [--seed N]\n"
               "          [--verbose] [--data-dir DIR] [--no-durability]\n"
               "          [--max-inbox N] [--metrics-addr HOST:PORT]\n"
               "          [--event-backend epoll]\n",
               argv0);
  return 3;
}

/// Fail fast on an unusable --data-dir: create it if missing, then prove it
/// is writable with a probe file. Catching this before the host constructs
/// beats an assert deep inside the WAL manager mid-recovery.
bool data_dir_writable(const char* dir, std::string* why) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    *why = "cannot create directory: " + ec.message();
    return false;
  }
  const fs::path probe = fs::path(dir) / ".poccd_write_probe";
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (f == nullptr) {
    *why = "directory is not writable: " + std::string(std::strerror(errno));
    return false;
  }
  std::fclose(f);
  fs::remove(probe, ec);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pocc;

  const char* config_path = nullptr;
  long dc = -1;
  long threads_override = -1;
  const char* system_override = nullptr;
  const char* data_dir = nullptr;
  const char* metrics_addr = nullptr;
  const char* event_backend = nullptr;
  bool no_durability = false;
  std::uint64_t seed = 1;
  long max_inbox = 0;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg_with_value = [&](const char* name, const char** out) {
      if (std::strcmp(argv[i], name) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(3);
      }
      *out = argv[++i];
      return true;
    };
    const char* value = nullptr;
    if (arg_with_value("--config", &config_path)) {
    } else if (arg_with_value("--dc", &value)) {
      dc = std::strtol(value, nullptr, 10);
    } else if (arg_with_value("--threads", &value)) {
      threads_override = std::strtol(value, nullptr, 10);
    } else if (arg_with_value("--system", &system_override)) {
    } else if (arg_with_value("--seed", &value)) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg_with_value("--data-dir", &data_dir)) {
    } else if (arg_with_value("--metrics-addr", &metrics_addr)) {
    } else if (arg_with_value("--event-backend", &event_backend)) {
    } else if (arg_with_value("--max-inbox", &value)) {
      max_inbox = std::strtol(value, nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-durability") == 0) {
      no_durability = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path == nullptr || dc < 0) return usage(argv[0]);

  std::string error;
  auto layout = net::load_cluster_config(config_path, &error);
  if (!layout.has_value()) {
    std::fprintf(stderr, "poccd: bad config: %s\n", error.c_str());
    return 3;
  }
  if (system_override != nullptr) {
    const auto system = parse_system(system_override);
    if (!system.has_value()) {
      std::fprintf(stderr, "poccd: unknown system '%s'\n", system_override);
      return 3;
    }
    layout->system = *system;
  }

  // The ProcessSpec this invocation serves: the config's one process for
  // --dc.
  const net::ProcessSpec* self = nullptr;
  int matches = 0;
  for (const net::ProcessSpec& p : layout->processes) {
    if (p.dc != static_cast<DcId>(dc)) continue;
    self = &p;
    ++matches;
  }
  if (self == nullptr) {
    std::fprintf(stderr, "poccd: no process for dc %ld in the config\n", dc);
    return 3;
  }
  if (matches > 1) {
    std::fprintf(stderr,
                 "poccd: %d processes host dc %ld — one per DC expected\n",
                 matches, dc);
    return 3;
  }

  net::ProcessSpec spec = *self;
  if (threads_override > 0) {
    spec.threads = static_cast<std::uint32_t>(threads_override);
  }

  if (data_dir != nullptr && no_durability) {
    std::fprintf(stderr,
                 "poccd: --data-dir and --no-durability are exclusive\n");
    return 3;
  }

  net::TcpNodeHost::Options opt;
  opt.listen_port = spec.port;
  opt.seed = seed;
  opt.verbose = verbose;
  if (max_inbox > 0) opt.max_inbox_messages = static_cast<std::size_t>(max_inbox);
  if (data_dir != nullptr) {
    std::string why;
    if (!data_dir_writable(data_dir, &why)) {
      std::fprintf(stderr, "poccd: --data-dir %s unusable — %s\n", data_dir,
                   why.c_str());
      return 3;
    }
    opt.data_dir = data_dir;
  }
  if (metrics_addr != nullptr) opt.metrics_addr = metrics_addr;
  if (event_backend != nullptr && std::strcmp(event_backend, "epoll") != 0) {
    std::fprintf(stderr,
                 "poccd: unknown --event-backend '%s' (epoll is the only "
                 "backend)\n",
                 event_backend);
    return 3;
  }
  // Map the engine clock onto wall time: steady_now_us() is process-relative,
  // so without this bias every process would carry a clock skew equal to its
  // start-time stagger, stalling PUT clock waits (Alg. 2 line 7) for exactly
  // that long.
  opt.clock = ClockConfig::perfect();
  opt.clock.offset_bias_us = realtime_us() - rt::steady_now_us();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);
  // SIGUSR1 is the chaos harness's interrupt pepper: a no-op handler
  // installed WITHOUT SA_RESTART, so delivery makes blocking syscalls in
  // the loop threads actually return EINTR. The process must shrug it off —
  // the e2e signal leg diffs the SIGUSR2 stats lines across the storm and
  // fails on any new reconnects.
  {
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGUSR1, &sa, nullptr);
  }
  // SIGUSR2 dumps a live transport stats line. Scripts bracket a chaos
  // window with two dumps and compare — the exit line alone can't separate
  // storm-induced reconnects from benign startup dial races (a peer that
  // wasn't listening yet also bumps the reconnect counter).
  std::signal(SIGUSR2, handle_dump);

  net::TcpNodeHost host(spec, *layout, opt);
  host.start();
  // Now that the loop threads exist (they inherited an unblocked mask),
  // mask SIGUSR1 in the main thread: a process-directed pepper from the
  // chaos harness would otherwise land on this thread's nanosleep and never
  // actually interrupt an event loop.
  {
    sigset_t pepper;
    sigemptyset(&pepper);
    sigaddset(&pepper, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &pepper, nullptr);
  }
  std::fprintf(stderr,
               "poccd dc%ld: %s engine, %zu partitions on %u workers, "
               "port %u\n",
               dc, system_flag(layout->system), spec.parts.size(),
               host.group().threads(), host.port());
  if (data_dir != nullptr) {
    // One line per partition recording what the WAL replay restored (crash
    // drills read the same numbers from the pocc_wal_replay_* gauges).
    const auto& replays = host.replay_stats();
    for (std::size_t i = 0; i < spec.parts.size(); ++i) {
      const wal::PartitionWal::ReplayStats& rs = replays[i];
      std::fprintf(stderr,
                   "poccd dc%ld: recovered part %u — snapshot_versions=%llu "
                   "log_versions=%llu vv_records=%llu torn_bytes=%llu\n",
                   dc, spec.parts[i],
                   static_cast<unsigned long long>(rs.snapshot_versions),
                   static_cast<unsigned long long>(rs.log_versions),
                   static_cast<unsigned long long>(rs.vv_records),
                   static_cast<unsigned long long>(rs.torn_bytes));
    }
  }

  while (g_stop == 0) {
    timespec nap{0, 50'000'000};  // 50 ms
    nanosleep(&nap, nullptr);
    if (g_dump_stats != 0) {
      g_dump_stats = 0;
      // Live dump = human render of the same registry snapshot /metrics
      // serves (scripts sed out e.g. "transport_reconnects=N" from it).
      const std::string line =
          stats::render_human(host.registry().snapshot());
      std::fprintf(stderr, "poccd dc%ld: stats — %s\n", dc, line.c_str());
    }
  }

  host.stop();
  // Exit stats = the same registry snapshot /metrics and SIGUSR2 render,
  // taken after the final drain so the counts are complete. The host (and
  // everything the scrape callbacks read) outlives stop(). The readiness
  // gauges describe a serving host and read 0 once stopped, so they are
  // left out.
  stats::Snapshot snap = host.registry().snapshot();
  std::erase_if(snap.samples, [](const stats::Snapshot::Sample& s) {
    return s.name == "pocc_host_ready" || s.name == "pocc_host_recovering";
  });
  const std::string exit_line = stats::render_human(snap);
  std::fprintf(stderr, "poccd dc%ld: exiting — %s\n", dc, exit_line.c_str());
  return 0;
}
