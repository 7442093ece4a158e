// Layer replay of the benchmark's traced run: the workload's seeded op stream
// is pushed, call by call, through the public entry points of each layer —
// the wire codec, a standalone POCC engine, the partition store and key
// interner, and the partition WAL — and every call is timed. Nothing inside
// src/ is instrumented; the replay only calls what those modules export.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/workload.hpp"

namespace pocc::bench {

/// Named measurements in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Exact nearest-rank percentile (q in (0, 1]) of `v`; 0 when empty.
/// Reorders `v`.
double percentile(std::vector<double>& v, double q);

/// Replay `ops` through every layer. `wal_dir` is a fresh directory the
/// replay may fill (the caller removes it). Returns the per-layer metrics
/// (`layer` rows of BENCHMARK.json) followed by per-message-type detail.
Metrics run_layer_replay(const std::vector<workload::Op>& ops,
                         std::uint32_t num_dcs, std::uint32_t partitions,
                         const std::string& wal_dir);

}  // namespace pocc::bench
