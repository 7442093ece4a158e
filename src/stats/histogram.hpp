// Log-bucketed streaming histogram for latency-like quantities.
//
// HDR-style layout: values are bucketed by (exponent, 1/16 sub-bucket), giving
// <= ~6.25% relative error per bucket over the full int64 range with a small
// fixed memory footprint. Used for response times, blocking times and
// staleness measurements.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace pocc::stats {

class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kOctaves = 48;  // values up to 2^48 us
  static constexpr std::uint32_t kBuckets = kOctaves * kSub;

  void record(std::int64_t value);
  void record_n(std::int64_t value, std::uint64_t n);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }

  /// Samples recorded at or below `bound` (Prometheus cumulative-bucket
  /// semantics). Accurate to the bucket resolution (<= ~6.25% relative
  /// error): a bucket counts as <= bound when its representative midpoint is.
  [[nodiscard]] std::uint64_t count_le(std::int64_t bound) const;

  /// p in [0, 100]. Returns a representative value of the bucket containing
  /// the requested rank.
  [[nodiscard]] std::int64_t percentile(double p) const;

  void merge(const Histogram& other);
  /// This histogram minus `earlier`, a past copy of it (a scrape taken at
  /// the start of a measurement window): buckets, count and sum become the
  /// window's exactly. The window's min (max) is exact when it set a new
  /// extreme, else bounded by its lowest (highest) bucket.
  void subtract(const Histogram& earlier);
  void reset();

 private:
  static std::uint32_t bucket_of(std::uint64_t v);
  static std::int64_t bucket_lo(std::uint32_t b);
  static std::int64_t bucket_mid(std::uint32_t b);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// JSON fragment `"<prefix>_p50_us":N,"<prefix>_p99_us":N,"<prefix>_p999_us":N`
/// (no surrounding braces or trailing comma) — the one definition of which
/// percentiles a latency report carries, shared by the loadgen JSON line and
/// the bench baselines so they can never drift apart.
std::string latency_json_fields(const std::string& prefix, const Histogram& h);

}  // namespace pocc::stats
