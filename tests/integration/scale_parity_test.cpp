// Bit-parity lock for the fluid solver: bench/scale_cluster's 64-VM Spread
// Wordcount + TeraSort pair on every fabric, with the simulation's outputs
// pinned in %.17g. A solver change that is meant to be a pure speed change
// (DESIGN.md §10) must pass this unmodified: the same makespans, the same
// event count, the same solves over the same member activities and the same
// NFS busy integral, down to the last bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "scale_pair.hpp"

namespace vhadoop {
namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Expected {
  net::TopologyKind topology;
  const char* wordcount_sim_s;
  const char* terasort_sim_s;
  const char* events_fired;
  const char* recomputes;
  const char* solve_work;  ///< sim.fluid.component_size sum
  const char* nfs_busy_integral;
};

// gtest prints a parameter in the test listing; name the fabric, not bytes.
void PrintTo(const Expected& e, std::ostream* os) { *os << net::to_string(e.topology); }

class ScaleParity : public ::testing::TestWithParam<Expected> {};

TEST_P(ScaleParity, SixtyFourVmPairIsBitIdentical) {
  const Expected& want = GetParam();
  bench::ScalePair pair(64, want.topology, /*hosts_per_rack=*/2);
  pair.boot();
  pair.stage();
  const double wordcount = pair.run_wordcount();
  const double terasort = pair.run_terasort();

  const obs::Registry& metrics = pair.platform().metrics();
  const obs::Counter* events = metrics.find_counter("sim.events_fired");
  const obs::Counter* recomputes = metrics.find_counter("sim.fluid.recomputes");
  const obs::Histogram* sizes = metrics.find_histogram("sim.fluid.component_size");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(recomputes, nullptr);
  ASSERT_NE(sizes, nullptr);

  EXPECT_EQ(num(wordcount), want.wordcount_sim_s);
  EXPECT_EQ(num(terasort), want.terasort_sim_s);
  EXPECT_EQ(num(events->value()), want.events_fired);
  EXPECT_EQ(num(recomputes->value()), want.recomputes);
  EXPECT_EQ(num(sizes->sum()), want.solve_work);
  EXPECT_EQ(num(pair.platform().cloud().nfs_disk_busy_integral()), want.nfs_busy_integral);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, ScaleParity,
    ::testing::Values(Expected{net::TopologyKind::SingleSwitch, "8.2532335860715591",
                               "30.501451645056193", "6711", "3774", "67538",
                               "17142120447.999857"},
                      Expected{net::TopologyKind::FatTree, "6.63934916255117",
                               "23.322044992322859", "6729", "4639", "78264",
                               "17066622976.000065"},
                      Expected{net::TopologyKind::Rotor, "6.6274324931320479",
                               "22.155175875392871", "6746", "4695", "64078",
                               "17058234368.000021"}),
    [](const ::testing::TestParamInfo<Expected>& param_info) {
      std::string name = net::to_string(param_info.param.topology);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace vhadoop
