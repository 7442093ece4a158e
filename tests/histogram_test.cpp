// Log-bucketed latency histogram: exactness for small values, bounded
// relative error for percentiles, clamping and weighted recording.
#include "stats/histogram.hpp"

#include <gtest/gtest.h>

namespace pocc::stats {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.percentile(0), 42);
  EXPECT_EQ(h.percentile(100), 42);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i < 16; ++i) h.record(i);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(100), 15);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, PercentileWithinRelativeError) {
  Histogram h;
  for (std::int64_t v = 1; v <= 100000; ++v) h.record(v);
  // Log-bucketed: <= ~6.25% relative error.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50000.0, 50000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99000.0, 99000.0 * 0.07);
  EXPECT_NEAR(static_cast<double>(h.percentile(10)), 10000.0, 10000.0 * 0.07);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const std::int64_t big = 1LL << 40;
  h.record(big);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)),
              static_cast<double>(big), static_cast<double>(big) * 0.07);
}

TEST(Histogram, RecordNWeightsCount) {
  Histogram h;
  h.record_n(10, 5);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_DOUBLE_EQ(a.mean(), 505.0);
}

TEST(Histogram, MergeIntoEmpty) {
  Histogram a;
  Histogram b;
  b.record(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SubtractLeavesTheWindow) {
  // A measurement window read off a monotone histogram: the cumulative
  // end state minus the copy taken at the window's start.
  Histogram cumulative;
  for (const std::int64_t v : {3, 700, 90'000}) cumulative.record(v);
  const Histogram start = cumulative;
  Histogram window;
  for (const std::int64_t v : {1, 40, 5'000, 5'100, 200'000}) {
    cumulative.record(v);
    window.record(v);
  }
  Histogram diff = cumulative;
  diff.subtract(start);
  EXPECT_EQ(diff.count(), window.count());
  EXPECT_DOUBLE_EQ(diff.sum(), window.sum());
  // Both extremes are new, so min and max are exact too.
  EXPECT_EQ(diff.min(), 1);
  EXPECT_EQ(diff.max(), 200'000);
  for (const double p : {0.0, 25.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(diff.percentile(p), window.percentile(p)) << p;
  }

  // Extremes the window did not move are bounded by its edge buckets.
  Histogram inner = cumulative;
  inner.record(5'050);
  inner.subtract(cumulative);
  EXPECT_EQ(inner.count(), 1u);
  EXPECT_LE(inner.min(), 5'050);
  EXPECT_GE(inner.max(), 5'050);
  EXPECT_GT(inner.min(), 4'000);
  EXPECT_LT(inner.max(), 6'000);

  const Histogram same = diff;
  diff.subtract(same);
  EXPECT_EQ(diff.count(), 0u);
  EXPECT_EQ(diff.max(), 0);
}

TEST(Histogram, PercentilesAreMonotone) {
  Histogram h;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h.record(static_cast<std::int64_t>(x % 1'000'000));
  }
  std::int64_t prev = 0;
  for (double p = 0; p <= 100.0; p += 5.0) {
    const std::int64_t v = h.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace pocc::stats
