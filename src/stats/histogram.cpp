#include "stats/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace pocc::stats {

std::uint32_t Histogram::bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<std::uint32_t>(v);
  const auto msb = static_cast<std::uint32_t>(63 - std::countl_zero(v));
  const std::uint32_t octave = msb - (kSubBits - 1);
  const auto sub =
      static_cast<std::uint32_t>((v >> (msb - kSubBits)) & (kSub - 1));
  const std::uint32_t b = octave * kSub + sub;
  return std::min(b, kBuckets - 1);
}

std::int64_t Histogram::bucket_mid(std::uint32_t b) {
  if (b < kSub) return b;
  const std::uint32_t octave = b / kSub;
  const std::uint32_t sub = b % kSub;
  const std::uint32_t msb = octave + kSubBits - 1;
  const std::uint64_t base = (1ULL << msb) | (static_cast<std::uint64_t>(sub)
                                              << (msb - kSubBits));
  const std::uint64_t width = 1ULL << (msb - kSubBits);
  return static_cast<std::int64_t>(base + width / 2);
}

std::int64_t Histogram::bucket_lo(std::uint32_t b) {
  if (b < kSub) return b;
  const std::uint32_t msb = b / kSub + kSubBits - 1;
  return static_cast<std::int64_t>((1ULL << msb) |
                                   (static_cast<std::uint64_t>(b % kSub)
                                    << (msb - kSubBits)));
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::int64_t clamped = std::max<std::int64_t>(value, 0);
  if (count_ == 0) {
    min_ = clamped;
    max_ = clamped;
  } else {
    min_ = std::min(min_, clamped);
    max_ = std::max(max_, clamped);
  }
  buckets_[bucket_of(static_cast<std::uint64_t>(clamped))] += n;
  count_ += n;
  sum_ += static_cast<double>(clamped) * static_cast<double>(n);
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return std::clamp(bucket_mid(b), min_, max_);
    }
  }
  return max_;
}

std::uint64_t Histogram::count_le(std::int64_t bound) const {
  if (bound < 0) return 0;
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (bucket_mid(b) > bound) break;  // bucket_mid is monotone in b
    seen += buckets_[b];
  }
  return seen;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::uint32_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::subtract(const Histogram& earlier) {
  if (earlier.count_ == 0) return;
  std::uint32_t lo = kBuckets;
  std::uint32_t hi = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    buckets_[b] -= earlier.buckets_[b];
    if (buckets_[b] != 0) {
      lo = std::min(lo, b);
      hi = b;
    }
  }
  count_ -= earlier.count_;
  sum_ -= earlier.sum_;
  if (count_ == 0) {
    reset();
    return;
  }
  min_ = std::max(min_, bucket_lo(lo));
  if (hi + 1 < kBuckets) max_ = std::min(max_, bucket_lo(hi + 1) - 1);
}

void Histogram::reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

std::string latency_json_fields(const std::string& prefix,
                                const Histogram& h) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s_p50_us\":%" PRId64 ",\"%s_p99_us\":%" PRId64
                ",\"%s_p999_us\":%" PRId64,
                prefix.c_str(), h.percentile(50), prefix.c_str(),
                h.percentile(99), prefix.c_str(), h.percentile(99.9));
  return buf;
}

}  // namespace pocc::stats
