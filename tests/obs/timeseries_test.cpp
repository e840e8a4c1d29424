#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "sim/engine.hpp"
#include "testutil/mini_json.hpp"

namespace vhadoop::obs {
namespace {

using testutil::JsonParser;
using testutil::JsonValue;

TEST(TimeSeries, SamplesEveryProbeWithTheGivenStamp) {
  TimeSeries ts;
  double a = 1.0, b = 10.0;
  ts.add("x.a", [&a] { return a; });
  ts.add("x.b", [&b] { return b; });
  EXPECT_TRUE(ts.has("x.a"));
  EXPECT_EQ(ts.series_count(), 2u);

  ts.sample(0.5);
  a = 2.0;
  ts.sample(1.5);
  const auto pa = ts.points("x.a");
  ASSERT_EQ(pa.size(), 2u);
  EXPECT_DOUBLE_EQ(pa[0].t, 0.5);
  EXPECT_DOUBLE_EQ(pa[0].v, 1.0);
  EXPECT_DOUBLE_EQ(pa[1].v, 2.0);
  EXPECT_EQ(ts.points("x.b").size(), 2u);
  EXPECT_TRUE(ts.points("unknown").empty());
}

TEST(TimeSeries, RingBufferKeepsTheNewestSamples) {
  TimeSeries ts;
  double v = 0.0;
  ts.add("r.v", [&v] { return v; }, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    v = static_cast<double>(i);
    ts.sample(static_cast<double>(i));
  }
  const auto pts = ts.points("r.v");
  ASSERT_EQ(pts.size(), 4u);  // capacity bounds memory
  // Chronological, holding the last four samples (6..9).
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(pts[static_cast<std::size_t>(i)].t, 6.0 + i);
    EXPECT_DOUBLE_EQ(pts[static_cast<std::size_t>(i)].v, 6.0 + i);
  }
}

TEST(TimeSeries, ReAddReplacesProbeButKeepsSamples) {
  TimeSeries ts;
  ts.add("s.v", [] { return 1.0; }, /*capacity=*/8);
  ts.sample(0.0);
  ts.add("s.v", [] { return 2.0; }, /*capacity=*/2);  // capacity ignored now
  ts.sample(1.0);
  const auto pts = ts.points("s.v");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].v, 1.0);
  EXPECT_DOUBLE_EQ(pts[1].v, 2.0);
  ts.clear_samples();
  EXPECT_TRUE(ts.points("s.v").empty());
  EXPECT_TRUE(ts.has("s.v"));  // registration survives
}

TEST(TimeSeries, JsonExportIsSortedAndParses) {
  TimeSeries ts;
  ts.add("z.last", [] { return 1.0; });
  ts.add("a.first", [] { return 2.0; }, /*capacity=*/16);
  ts.sample(3.0);
  const std::string json = ts.to_json();
  EXPECT_LT(json.find("\"a.first\""), json.find("\"z.last\""));

  JsonValue root = JsonParser::parse(json);
  EXPECT_EQ(root.at("schema").str, "vhadoop-timeseries-v1");
  const JsonValue& s = root.at("series").at("a.first");
  EXPECT_DOUBLE_EQ(s.at("capacity").number, 16.0);
  ASSERT_EQ(s.at("points").array.size(), 1u);
  EXPECT_DOUBLE_EQ(s.at("points").at(0).at(0).number, 3.0);
  EXPECT_DOUBLE_EQ(s.at("points").at(0).at(1).number, 2.0);
}

TEST(TimeSeries, EngineSamplerRunsOnCadenceWithoutHoldingRunOpen) {
  sim::Engine eng;
  int level = 0;
  eng.timeseries().add("sim.level", [&level] { return static_cast<double>(level); });
  eng.sample_timeseries_every(1.0);

  // Workload: bump the level at t=2.5 and t=4.5, done at 4.5.
  eng.schedule_at(2.5, [&level] { level = 5; });
  eng.schedule_at(4.5, [&level] { level = 9; });
  eng.run();
  // The daemon chain must not keep run() alive past the last regular event.
  EXPECT_DOUBLE_EQ(eng.now(), 4.5);

  const auto pts = eng.timeseries().points("sim.level");
  ASSERT_GE(pts.size(), 4u);
  // Samples land on the 1-second cadence and see values of their instant.
  EXPECT_DOUBLE_EQ(pts[0].t, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].v, 0.0);
  EXPECT_DOUBLE_EQ(pts[2].t, 3.0);
  EXPECT_DOUBLE_EQ(pts[2].v, 5.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_DOUBLE_EQ(pts[i].t - pts[i - 1].t, 1.0);
  }
}

TEST(TimeSeries, EngineSamplerRejectsNonFinitePeriodWithoutChangingState) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A rejected first call leaves the sampler unarmed: a later valid call
  // still arms it.
  sim::Engine fresh;
  fresh.timeseries().add("x", [] { return 0.0; });
  EXPECT_THROW(fresh.sample_timeseries_every(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  fresh.sample_timeseries_every(1.0);
  fresh.schedule_at(5.5, [] {});
  fresh.run();
  EXPECT_EQ(fresh.timeseries().points("x").size(), 5u);

  // An armed sampler keeps its period: no tick throws out of run().
  sim::Engine armed;
  armed.timeseries().add("x", [] { return 0.0; });
  armed.sample_timeseries_every(1.0);
  EXPECT_THROW(armed.sample_timeseries_every(kInf), std::invalid_argument);
  EXPECT_THROW(armed.sample_timeseries_every(-kInf), std::invalid_argument);
  armed.schedule_at(3.5, [] {});
  EXPECT_NO_THROW(armed.run());
  EXPECT_EQ(armed.timeseries().points("x").size(), 3u);
}

}  // namespace
}  // namespace vhadoop::obs
