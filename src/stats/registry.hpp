// Unified instrument registry: named, labeled counters / gauges / histograms
// that a live scrape thread can snapshot without blocking the hot paths.
//
// Sharding model
// --------------
// Hot-path writers never contend with each other or with scrapes:
//   * `Counter` / `Gauge` are single relaxed atomics — writers increment
//     wait-free, the scrape loads. Registering a counter again under the
//     same (name, labels) adds a shard that the snapshot sums (a restarted
//     engine's counts add to its predecessor's); registering a gauge again
//     returns the existing one (a restarted engine takes over the value).
//   * `counter_fn` / `gauge_fn` adopt an *existing* thread-safe accessor
//     (e.g. TcpTransport::stats(), TcpTransport::queued_bytes()) instead of
//     duplicating the count; the callback runs only at scrape time and MUST
//     be safe to call from the scrape thread.
//   * `histogram(...)` returns a HistogramCell — a mutex + stats::Histogram.
//     Registering the same (name, labels) repeatedly creates a NEW cell each
//     time, so each writer thread records into its own shard and the cell
//     mutex is uncontended except during the rare scrape, which merges all
//     shards of a name.
//
// `snapshot()` merges shards by (name, labels) preserving first-registration
// order and returns plain data; `render_prometheus()` / `render_human()` are
// two renders of the same snapshot (satisfying the "SIGUSR2 live dump ==
// /metrics" unification).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace pocc::stats {

/// Label set, rendered in the given order: {{"part", "0"}, {"dc", "1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Wait-free monotonic counter instrument.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Wait-free point-in-time gauge instrument.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// One histogram shard. Writers lock only their own cell, so the mutex is
/// uncontended on the hot path; the scrape takes each cell briefly to merge.
class HistogramCell {
 public:
  void record(std::int64_t v) {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.record(v);
  }
  [[nodiscard]] Histogram snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;
  Histogram hist_;
};

/// Plain-data scrape result (instruments already merged by name + labels).
struct Snapshot {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Sample {
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    double value = 0.0;   // counter / gauge value
    // kHistogram only: on the heap, so counter and gauge samples stay
    // small (a Histogram is 6 KB).
    std::unique_ptr<Histogram> hist;
    std::string help;
  };
  std::vector<Sample> samples;

  /// Sum of the counter/gauge samples named `name` whose labels include
  /// every pair of `match` (all of the name's samples when `match` is
  /// empty) — run.py's total() over one scrape.
  [[nodiscard]] double value(const std::string& name,
                             const Labels& match = {}) const;
  /// Merge of the histogram samples selected the same way.
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    const Labels& match = {}) const;
};

class Registry {
 public:
  /// Counter names should end in `_total` (Prometheus convention); gauges
  /// and histograms should not.
  Counter* counter(std::string name, Labels labels = {}, std::string help = {});
  /// Get-or-create: a repeated (name, labels) returns the existing gauge.
  Gauge* gauge(std::string name, Labels labels = {}, std::string help = {});
  HistogramCell* histogram(std::string name, Labels labels = {},
                           std::string help = {});

  /// Scrape-time callbacks adopting existing thread-safe accessors. The
  /// callable runs on the scrape thread — it must not touch thread-affine
  /// state.
  void counter_fn(std::string name, Labels labels,
                  std::function<std::uint64_t()> fn, std::string help = {});
  void gauge_fn(std::string name, Labels labels,
                std::function<std::int64_t()> fn, std::string help = {});

  /// Merges all shards of each (name, labels) pair, preserving the order of
  /// first registration. Safe to call concurrently with hot-path writes.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Instrument {
    std::string name;
    Labels labels;
    Snapshot::Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramCell> hist;
    std::function<std::uint64_t()> counter_fn;
    std::function<std::int64_t()> gauge_fn;
  };

  mutable std::mutex mu_;  // guards instruments_ layout, not the hot writes
  std::vector<Instrument> instruments_;
};

/// Prometheus text exposition format: `# HELP` / `# TYPE` headers, cumulative
/// `le` buckets (microsecond ladder) plus `_sum` / `_count` for histograms,
/// full label-value escaping.
std::string render_prometheus(const Snapshot& snap);

/// One human line per instrument: `name{k=v}=value` with the `pocc_` prefix
/// and `_total` suffix stripped; histograms as `_count/_p50/_p99/_p999`.
/// Samples are joined with a single space (fits poccd's one-line dumps).
std::string render_human(const Snapshot& snap);

}  // namespace pocc::stats
