// Perf smoke: one fixed-seed simulation run, one JSON line.
//
// The repo's perf-trajectory artifact: a deterministic 3-DC x 4-partition
// SimCluster run under the paper's GET/PUT workload, reporting simulated
// throughput, host event rate, wall time and peak RSS. CI runs it on every
// push (non-gating) and uploads BENCH_perf_smoke.json, so hot-path
// regressions show up as a trend, not an anecdote.
//
//   ./perf_smoke                         # JSON line on stdout
//   ./perf_smoke --out BENCH_perf_smoke.json
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "store/key_space.hpp"

namespace {

using namespace pocc;

/// Peak resident set size in kilobytes (Linux ru_maxrss unit).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  // Fixed configuration — change it only intentionally, it invalidates the
  // perf trajectory.
  constexpr std::uint32_t kPartitions = 4;
  constexpr std::uint32_t kClientsPerPartition = 32;
  constexpr std::uint64_t kSeed = 42;
  constexpr Duration kWarmupUs = 400'000;
  constexpr Duration kMeasureUs = 2'000'000;

  cluster::SimClusterConfig cfg =
      bench::paper_config(SystemKind::kPocc, kPartitions, kSeed);
  workload::WorkloadConfig wl = bench::paper_workload();

  const auto wall_start = std::chrono::steady_clock::now();

  cluster::SimCluster sim_cluster(cfg);
  sim_cluster.add_workload_clients(kClientsPerPartition, wl);
  sim_cluster.run_for(kWarmupUs);
  const std::uint64_t events_before = sim_cluster.simulator().executed_events();
  // events_per_sec is measurement-window events over measurement-window wall
  // time; wall_ms stays the whole run (construction + warmup + measurement)
  // so both the hot-path rate and total cost are tracked consistently.
  const auto meas_start = std::chrono::steady_clock::now();
  sim_cluster.begin_measurement();
  sim_cluster.run_for(kMeasureUs);
  const auto meas_end = std::chrono::steady_clock::now();
  const cluster::ClusterMetrics m = sim_cluster.end_measurement();
  const std::uint64_t events =
      sim_cluster.simulator().executed_events() - events_before;
  sim_cluster.stop_clients();

  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  const double meas_ms =
      std::chrono::duration<double, std::milli>(meas_end - meas_start).count();
  const double events_per_sec =
      meas_ms > 0 ? static_cast<double>(events) / (meas_ms / 1e3) : 0.0;

  char json[512];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"perf_smoke\",\"seed\":%llu,\"dcs\":3,\"partitions\":%u,"
      "\"clients_per_partition\":%u,\"sim_ops\":%llu,"
      "\"sim_ops_per_sec\":%.1f,\"events\":%llu,\"events_per_sec\":%.1f,"
      "\"wall_ms\":%.1f,\"peak_rss_kb\":%ld,\"interned_keys\":%zu}",
      static_cast<unsigned long long>(kSeed), kPartitions,
      kClientsPerPartition, static_cast<unsigned long long>(m.completed_ops),
      m.throughput_ops_per_sec, static_cast<unsigned long long>(events),
      events_per_sec, wall_ms, peak_rss_kb(),
      store::KeySpace::global().size());

  std::printf("%s\n", json);
  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  return 0;
}
