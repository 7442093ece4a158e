// The unified stats registry: shard merging, get-or-create gauges, snapshot
// lookups, Prometheus/human renders, escaping.
#include "stats/registry.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pocc::stats {
namespace {

// ---------------------------------------------------------------------------
// Registry: shard merging, scrape-time callbacks, and both renders.

TEST(Registry, CounterShardsMergeInSnapshot) {
  Registry r;
  // Same (name, labels) registered twice = two per-thread shards; the
  // snapshot folds them into ONE series.
  Counter* a = r.counter("pocc_ops_total");
  Counter* b = r.counter("pocc_ops_total");
  a->inc(3);
  b->inc(4);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].name, "pocc_ops_total");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 7.0);
}

TEST(Registry, DistinctLabelsAreDistinctSeries) {
  Registry r;
  r.counter("pocc_ops_total", {{"op", "get"}})->inc(1);
  r.counter("pocc_ops_total", {{"op", "put"}})->inc(2);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  // First-registration order is preserved.
  EXPECT_EQ(snap.samples[0].labels[0].second, "get");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 1.0);
  EXPECT_EQ(snap.samples[1].labels[0].second, "put");
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 2.0);
}

TEST(Registry, GaugeAndCallbacks) {
  Registry r;
  r.gauge("pocc_depth")->set(-5);
  r.counter_fn("pocc_fn_total", {}, [] { return std::uint64_t{42}; });
  r.gauge_fn("pocc_fn_gauge", {}, [] { return std::int64_t{-7}; });
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, -5.0);
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 42.0);
  EXPECT_DOUBLE_EQ(snap.samples[2].value, -7.0);
}

TEST(Registry, RepeatedGaugeIsTheSameGauge) {
  // A restarted engine re-registers its gauges: it must take the series
  // over, not add a second value the snapshot would sum.
  Registry r;
  Gauge* first = r.gauge("pocc_floor", {{"part", "0"}});
  first->set(100);
  Gauge* again = r.gauge("pocc_floor", {{"part", "0"}});
  EXPECT_EQ(again, first);
  again->set(7);
  EXPECT_NE(r.gauge("pocc_floor", {{"part", "1"}}), first);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 7.0);
}

TEST(Snapshot, ValueAndHistogramSumTheMatchingLabelSets) {
  Registry r;
  r.counter("pocc_hb_total", {{"part", "0"}, {"kind", "timer"}})->inc(1);
  r.counter("pocc_hb_total", {{"part", "0"}, {"kind", "pass"}})->inc(2);
  r.counter("pocc_hb_total", {{"part", "1"}, {"kind", "pass"}})->inc(4);
  r.counter("pocc_other_total")->inc(8);
  r.histogram("pocc_wait_us", {{"part", "0"}})->record(10);
  r.histogram("pocc_wait_us", {{"part", "1"}})->record(30);
  const Snapshot snap = r.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("pocc_hb_total"), 7.0);
  EXPECT_DOUBLE_EQ(snap.value("pocc_hb_total", {{"kind", "pass"}}), 6.0);
  EXPECT_DOUBLE_EQ(
      snap.value("pocc_hb_total", {{"part", "0"}, {"kind", "pass"}}), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("pocc_missing_total"), 0.0);
  EXPECT_EQ(snap.histogram("pocc_wait_us").count(), 2u);
  EXPECT_DOUBLE_EQ(snap.histogram("pocc_wait_us", {{"part", "1"}}).sum(),
                   30.0);
}

TEST(Registry, CallbackShardsSumLikeInstruments) {
  // Split counters (e.g. per-shard transport stats) fold into one series.
  Registry r;
  r.counter_fn("pocc_split_total", {}, [] { return std::uint64_t{10}; });
  r.counter_fn("pocc_split_total", {}, [] { return std::uint64_t{32}; });
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 42.0);
}

TEST(Registry, HistogramShardsMerge) {
  Registry r;
  HistogramCell* a = r.histogram("pocc_lat_us", {{"op", "get"}});
  HistogramCell* b = r.histogram("pocc_lat_us", {{"op", "get"}});
  a->record(100);
  b->record(200);
  b->record(300);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].hist->count(), 3u);
  EXPECT_DOUBLE_EQ(snap.samples[0].hist->sum(), 600.0);
}

TEST(RenderPrometheus, TypeOncePerFamilyAndCumulativeBuckets) {
  Registry r;
  r.counter("pocc_ops_total", {{"op", "get"}}, "Operations served.")->inc(5);
  r.counter("pocc_ops_total", {{"op", "put"}})->inc(6);
  HistogramCell* h = r.histogram("pocc_lat_us");
  h->record(60);       // lands in the 100us bucket...
  h->record(2'000'000);  // ...and one past every finite bound
  const std::string out = render_prometheus(r.snapshot());

  // HELP/TYPE exactly once for the two-sample counter family.
  EXPECT_NE(out.find("# HELP pocc_ops_total Operations served.\n"),
            std::string::npos);
  std::size_t first = out.find("# TYPE pocc_ops_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("# TYPE pocc_ops_total counter", first + 1),
            std::string::npos);
  EXPECT_NE(out.find("pocc_ops_total{op=\"get\"} 5\n"), std::string::npos);
  EXPECT_NE(out.find("pocc_ops_total{op=\"put\"} 6\n"), std::string::npos);

  EXPECT_NE(out.find("# TYPE pocc_lat_us histogram"), std::string::npos);
  // 60us <= le=100 bucket; the 2s sample only reaches +Inf.
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"100\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"1000000\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("pocc_lat_us_count 2\n"), std::string::npos);
}

TEST(RenderPrometheus, EscapesLabelValues) {
  Registry r;
  r.counter("pocc_esc_total", {{"path", "a\\b\"c\nd"}})->inc(1);
  const std::string out = render_prometheus(r.snapshot());
  EXPECT_NE(out.find("pocc_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(RenderHuman, StripsPrefixAndRendersHistograms) {
  Registry r;
  r.counter("pocc_transport_reconnects_total")->inc(2);
  r.gauge("pocc_inbox_depth", {{"part", "1"}})->set(9);
  r.histogram("pocc_server_op_us", {{"op", "get"}})->record(100);
  const std::string line = render_human(r.snapshot());
  // `pocc_` prefix and counter `_total` suffix stripped; labels inline.
  EXPECT_NE(line.find("transport_reconnects=2"), std::string::npos);
  EXPECT_NE(line.find("inbox_depth{part=1}=9"), std::string::npos);
  EXPECT_NE(line.find("server_op_us{op=get}_count=1"), std::string::npos);
  EXPECT_NE(line.find("server_op_us{op=get}_p99="), std::string::npos);
  EXPECT_EQ(line.find("pocc_"), std::string::npos);
}

TEST(HistogramCountLe, CumulativeAndMonotone) {
  Histogram h;
  h.record(10);
  h.record(600);
  h.record(100'000'000);
  EXPECT_EQ(h.count_le(-1), 0u);
  EXPECT_EQ(h.count_le(50), 1u);
  EXPECT_EQ(h.count_le(1'000), 2u);
  std::uint64_t prev = 0;
  for (std::int64_t bound : {50, 100, 1'000, 1'000'000, 2'000'000'000}) {
    const std::uint64_t c = h.count_le(bound);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(h.count_le(std::int64_t{1} << 40), 3u);
}

TEST(LatencyJsonFields, EmitsP50P99P999) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  const std::string json = latency_json_fields("get", h);
  EXPECT_NE(json.find("\"get_p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"get_p99_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"get_p999_us\":"), std::string::npos);
  // Three fields, comma-separated, no trailing comma.
  EXPECT_EQ(json.front(), '"');
  EXPECT_NE(json.back(), ',');
}

}  // namespace
}  // namespace pocc::stats
