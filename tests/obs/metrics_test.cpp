#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "testutil/mini_json.hpp"

namespace vhadoop::obs {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

TEST(Registry, LookupIsIdempotent) {
  Registry reg;
  Counter* a = reg.counter("mr.map_attempts");
  a->add(3.0);
  Counter* b = reg.counter("mr.map_attempts");
  EXPECT_EQ(a, b);  // same object, not a fresh zeroed one
  EXPECT_DOUBLE_EQ(b->value(), 3.0);
  EXPECT_EQ(reg.size(), 1u);

  Gauge* g1 = reg.gauge("sim.queue_depth");
  Gauge* g2 = reg.gauge("sim.queue_depth");
  EXPECT_EQ(g1, g2);

  Histogram* h1 = reg.histogram("mr.map_seconds", Histogram::linear_buckets(10.0, 5));
  // Bounds of a later call are ignored: same object comes back.
  Histogram* h2 = reg.histogram("mr.map_seconds", Histogram::linear_buckets(99.0, 2));
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds().size(), 5u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, PointersStayValidAcrossInsertions) {
  Registry reg;
  Counter* first = reg.counter("a.first");
  for (int i = 0; i < 100; ++i) {
    reg.counter("b.filler_" + std::to_string(i));
  }
  first->inc();
  EXPECT_DOUBLE_EQ(reg.counter("a.first")->value(), 1.0);
}

TEST(Registry, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("absent"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("t.present")->inc();
  ASSERT_NE(reg.find_counter("t.present"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_counter("t.present")->value(), 1.0);
}

TEST(Gauge, TracksHighWaterMark) {
  Gauge g;
  g.set(3.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
}

TEST(Histogram, BucketsAndStats) {
  Histogram h(Histogram::linear_buckets(10.0, 5));  // bounds 2,4,6,8,10
  ASSERT_EQ(h.bounds().size(), 5u);
  EXPECT_DOUBLE_EQ(h.bounds().front(), 2.0);
  EXPECT_DOUBLE_EQ(h.bounds().back(), 10.0);

  for (double v : {1.0, 3.0, 5.0, 7.0, 9.0, 25.0}) h.observe(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 50.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_NEAR(h.mean(), 50.0 / 6.0, 1e-12);
  // One observation per bucket incl. overflow.
  ASSERT_EQ(h.bucket_counts().size(), 6u);
  for (std::uint64_t c : h.bucket_counts()) EXPECT_EQ(c, 1u);
}

TEST(Histogram, ExponentialBucketsGrowGeometrically) {
  auto bounds = Histogram::exponential_buckets(1.0, 2.0, 4);  // 1,2,4,8
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h(Histogram::linear_buckets(100.0, 10));
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  // Uniform 1..100: quantiles land near their nominal values (bucket
  // interpolation is approximate, so allow one bucket-width of slack).
  EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 10.0);
  EXPECT_LE(h.percentile(0.5), h.percentile(0.95));
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram empty(Histogram::linear_buckets(10.0, 5));
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);  // no data
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.5), 0.0);

  Histogram overflow_only(Histogram::linear_buckets(1.0, 2));
  overflow_only.observe(500.0);
  // Overflow bucket has no upper bound; reports the observed max.
  EXPECT_DOUBLE_EQ(overflow_only.percentile(0.99), 500.0);
}

TEST(Histogram, PercentileDegenerateQuantilesClampToMinMax) {
  Histogram h(Histogram::linear_buckets(100.0, 10));
  for (double v : {3.0, 40.0, 77.0}) h.observe(v);
  // q <= 0 is the observed minimum, q >= 1 the observed maximum — never an
  // extrapolation past the data.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(-2.5), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 77.0);
  EXPECT_DOUBLE_EQ(h.percentile(7.0), 77.0);
  // Interior quantiles stay bracketed by the observed range.
  const double p50 = h.percentile(0.5);
  EXPECT_GE(p50, 3.0);
  EXPECT_LE(p50, 77.0);
}

TEST(ScopedTimer, ObservesElapsedFakeClock) {
  Histogram h(Histogram::linear_buckets(10.0, 10));
  double now = 5.0;
  {
    ScopedTimer t(&h, [&] { return now; });
    now = 8.5;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.5);
}

TEST(Registry, JsonSnapshotParsesAndIsOrderIndependent) {
  Registry a;
  a.counter("net.bytes_sent")->add(1024.0);
  a.gauge("sim.queue_depth")->set(7.0);
  a.histogram("mr.map_seconds", Histogram::linear_buckets(4.0, 2))->observe(3.0);

  // Same metrics registered in the opposite order.
  Registry b;
  b.histogram("mr.map_seconds", Histogram::linear_buckets(4.0, 2))->observe(3.0);
  b.gauge("sim.queue_depth")->set(7.0);
  b.counter("net.bytes_sent")->add(1024.0);

  EXPECT_EQ(a.to_json(), b.to_json());

  JsonValue root = JsonParser::parse(a.to_json());
  ASSERT_TRUE(root.is_object());
  EXPECT_DOUBLE_EQ(root.at("counters").at("net.bytes_sent").number, 1024.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("sim.queue_depth").at("value").number, 7.0);
  const JsonValue& h = root.at("histograms").at("mr.map_seconds");
  EXPECT_DOUBLE_EQ(h.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 3.0);
  // Quantile summary rides along in the snapshot; one observation means
  // every quantile is that observation.
  EXPECT_DOUBLE_EQ(h.at("p50").number, 3.0);
  EXPECT_DOUBLE_EQ(h.at("p95").number, 3.0);
  EXPECT_DOUBLE_EQ(h.at("p99").number, 3.0);
  ASSERT_TRUE(h.at("bounds").is_array());
  EXPECT_EQ(h.at("bounds").array.size(), 2u);
  EXPECT_EQ(h.at("counts").array.size(), 3u);  // 2 bounds + overflow
}

TEST(Registry, SnapshotKeysAreStrictlySortedRegardlessOfRegistrationOrder) {
  // Sorted emission is an asserted invariant of the determinism contract
  // (DESIGN.md §9), not an accident of the backing container: register in
  // descending order and check the serialized key order byte-for-byte.
  Registry r;
  for (const char* name : {"z.last", "m.middle", "a.first"}) {
    r.counter(name)->inc();
    r.gauge(name)->set(1.0);
    r.histogram(name, Histogram::linear_buckets(1.0, 1))->observe(0.5);
  }
  const std::string json = r.to_json();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    std::string key = "\"";
    key += section;
    key += "\":";
    const std::size_t base = json.find(key);
    ASSERT_NE(base, std::string::npos) << section;
    const std::size_t a = json.find("\"a.first\"", base);
    const std::size_t m = json.find("\"m.middle\"", base);
    const std::size_t z = json.find("\"z.last\"", base);
    ASSERT_NE(a, std::string::npos) << section;
    EXPECT_LT(a, m) << section;
    EXPECT_LT(m, z) << section;
  }
}

}  // namespace
}  // namespace vhadoop::obs
