// Protocol-level metrics mirroring the quantities the paper reports:
//   * operation throughput and response times (Fig. 1, Fig. 3a/3b),
//   * blocking probability and blocking time of stalled ops (Fig. 2a, 3c),
//   * data staleness: % old / % unmerged reads and the number of fresher /
//     unmerged versions in the affected chains (Fig. 2b, 3d).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "stats/histogram.hpp"
#include "stats/relaxed_counter.hpp"

namespace pocc::stats {

/// Server-side blocking behaviour (POCC §V-B "Blocking dynamics").
/// An operation "blocks" when it is parked because a dependency has not been
/// received yet; blocking time is how long it stays parked.
struct BlockingStats {
  /// Stalls longer than this count as "macro" blocking — the granularity a
  /// real deployment's measurement would register (sub-ms parking caused by
  /// inter-partition VV skew is indistinguishable from scheduling noise).
  static constexpr Duration kMacroThresholdUs = 1'000;

  // Counters are relaxed atomics so a live /metrics scrape may read them
  // from another thread while the owning engine thread keeps incrementing.
  RelaxedU64 operations;     // ops subject to blocking (GET/PUT/slice)
  RelaxedU64 blocked;        // ops that stalled at all
  RelaxedU64 blocked_macro;  // ops that stalled > kMacroThresholdUs
  // Summed blocking time of blocked ops: the scrape-safe twin of the
  // histogram below, which only its owning thread may read.
  RelaxedU64 blocked_us_total;
  Histogram blocked_time_us;  // blocking duration of blocked ops

  void record_op(Duration blocked_us) {
    ++operations;
    if (blocked_us > 0) {
      ++blocked;
      if (blocked_us > kMacroThresholdUs) ++blocked_macro;
      blocked_us_total += static_cast<std::uint64_t>(blocked_us);
      blocked_time_us.record(blocked_us);
    }
  }
  [[nodiscard]] double blocking_probability() const {
    return operations == 0
               ? 0.0
               : static_cast<double>(blocked) / static_cast<double>(operations);
  }
  [[nodiscard]] double macro_blocking_probability() const {
    return operations == 0 ? 0.0
                           : static_cast<double>(blocked_macro) /
                                 static_cast<double>(operations);
  }
  [[nodiscard]] double avg_blocking_time_us() const {
    return blocked_time_us.mean();
  }
  void merge(const BlockingStats& o) {
    operations += o.operations;
    blocked += o.blocked;
    blocked_macro += o.blocked_macro;
    blocked_us_total += o.blocked_us_total;
    blocked_time_us.merge(o.blocked_time_us);
  }
  void reset() {
    operations = 0;
    blocked = 0;
    blocked_macro = 0;
    blocked_us_total = 0;
    blocked_time_us.reset();
  }
};

/// Read staleness (§V-B definitions):
///  - a returned item is "old" if it is not the version with the highest
///    timestamp in its chain;
///  - an item is "unmerged" if at least one version of it is not yet stable,
///    regardless of the freshness of the returned version.
struct StalenessStats {
  RelaxedU64 reads;
  RelaxedU64 old_reads;
  RelaxedU64 unmerged_reads;
  RelaxedU64 fresher_versions;   // summed over old reads
  RelaxedU64 unmerged_versions;  // summed over unmerged reads

  void record_read(std::uint32_t fresher, std::uint32_t unmerged) {
    ++reads;
    if (fresher > 0) {
      ++old_reads;
      fresher_versions += fresher;
    }
    if (unmerged > 0) {
      ++unmerged_reads;
      unmerged_versions += unmerged;
    }
  }
  [[nodiscard]] double pct_old() const {
    return reads == 0 ? 0.0
                      : 100.0 * static_cast<double>(old_reads) /
                            static_cast<double>(reads);
  }
  [[nodiscard]] double pct_unmerged() const {
    return reads == 0 ? 0.0
                      : 100.0 * static_cast<double>(unmerged_reads) /
                            static_cast<double>(reads);
  }
  /// Average number of fresher versions in the chain of an old read.
  [[nodiscard]] double avg_fresher_versions() const {
    return old_reads == 0 ? 0.0
                          : static_cast<double>(fresher_versions) /
                                static_cast<double>(old_reads);
  }
  /// Average number of unmerged versions in the chain of an unmerged read.
  [[nodiscard]] double avg_unmerged_versions() const {
    return unmerged_reads == 0 ? 0.0
                               : static_cast<double>(unmerged_versions) /
                                     static_cast<double>(unmerged_reads);
  }
  void merge(const StalenessStats& o) {
    reads += o.reads;
    old_reads += o.old_reads;
    unmerged_reads += o.unmerged_reads;
    fresher_versions += o.fresher_versions;
    unmerged_versions += o.unmerged_versions;
  }
  void reset() { *this = StalenessStats{}; }
};

/// Client-side operation latencies and counts.
struct OpStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t ro_txs = 0;
  Histogram get_latency_us;
  Histogram put_latency_us;
  Histogram tx_latency_us;

  [[nodiscard]] std::uint64_t total_ops() const {
    return gets + puts + ro_txs;
  }
  void merge(const OpStats& o) {
    gets += o.gets;
    puts += o.puts;
    ro_txs += o.ro_txs;
    get_latency_us.merge(o.get_latency_us);
    put_latency_us.merge(o.put_latency_us);
    tx_latency_us.merge(o.tx_latency_us);
  }
  void reset() {
    gets = puts = ro_txs = 0;
    get_latency_us.reset();
    put_latency_us.reset();
    tx_latency_us.reset();
  }
  /// Mean latency over all operations.
  [[nodiscard]] double avg_latency_us() const;
};

/// Formats `v` with engineering-style precision for result tables.
std::string format_double(double v, int precision = 3);

}  // namespace pocc::stats
