// Parity lock for multi-job runs: bench/tenant_day's 2000-job quick trace
// replayed on the paper cluster under every scheduler policy, with the
// outcome pinned in %.17g. Unlike the single-job FIFO golden, jobs here
// queue behind one another, so a JobTracker change that is meant to be a
// pure speed change (DESIGN.md §8) must pass this unmodified: the same
// latencies and SLO misses, the same admission decisions, the same
// heartbeats, events and map attempts.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "tenant_replay.hpp"

namespace vhadoop {
namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Expected {
  mapreduce::SchedulerPolicy policy;
  const char* makespan_s;
  const char* p50_latency_s;
  const char* p99_latency_s;
  const char* slo_miss_rate;
  int accepted;
  int rejected;
  const char* heartbeats;
  const char* events_fired;
  const char* map_attempts;
};

// gtest prints a parameter in the test listing; name the policy, not bytes.
void PrintTo(const Expected& e, std::ostream* os) { *os << mapreduce::to_string(e.policy); }

const workloads::WorkloadTrace& quick_trace() {
  static const workloads::WorkloadTrace trace =
      workloads::generate_trace(bench::tenant_day_trace_config(2000));
  return trace;
}

double counter(const obs::Registry& metrics, const char* name) {
  const obs::Counter* c = metrics.find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c ? c->value() : -1.0;
}

class TenantParity : public ::testing::TestWithParam<Expected> {};

TEST_P(TenantParity, QuickTraceReplayIsBitIdentical) {
  const Expected& want = GetParam();
  bench::TenantReplay day(want.policy, quick_trace());
  const double makespan = day.run();
  const workloads::TraceReplayer& replayer = day.replayer();
  const obs::Registry& metrics = day.platform().metrics();

  EXPECT_EQ(num(makespan), want.makespan_s);
  EXPECT_EQ(num(replayer.latency_percentile(0.50)), want.p50_latency_s);
  EXPECT_EQ(num(replayer.latency_percentile(0.99)), want.p99_latency_s);
  EXPECT_EQ(num(replayer.slo_miss_rate()), want.slo_miss_rate);
  EXPECT_EQ(replayer.accepted(), want.accepted);
  EXPECT_EQ(replayer.rejected(), want.rejected);
  EXPECT_EQ(num(counter(metrics, "mr.heartbeats")), want.heartbeats);
  EXPECT_EQ(num(counter(metrics, "sim.events_fired")), want.events_fired);
  EXPECT_EQ(num(counter(metrics, "mr.map_attempts")), want.map_attempts);

  // The lock only means something if jobs really waited behind others.
  if (want.policy == mapreduce::SchedulerPolicy::Fifo) {
    const obs::Histogram* wait = metrics.find_histogram("mr.job_queue_wait_seconds");
    ASSERT_NE(wait, nullptr);
    EXPECT_GT(wait->max(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TenantParity,
    ::testing::Values(
        Expected{mapreduce::SchedulerPolicy::Fifo, "86346.289046975915", "9.1914649562822888",
                 "56.025499563402263", "0.014642082429501085", 2000, 0, "63197", "234414",
                 "6285"},
        Expected{mapreduce::SchedulerPolicy::Fair, "86342.067027647703", "5.4307741211523535",
                 "39.057226716264267", "0", 2000, 0, "53059", "226748", "6285"},
        Expected{mapreduce::SchedulerPolicy::Capacity, "86342.067027647703",
                 "5.4175897663953947", "39.447291509387696", "0.00054229934924078093", 2000, 0,
                 "53088", "226793", "6285"},
        Expected{mapreduce::SchedulerPolicy::Deadline, "86342.067027647703",
                 "5.417417936885613", "38.776305093750125", "0.00054229934924078093", 2000, 0,
                 "53063", "226769", "6285"}),
    [](const ::testing::TestParamInfo<Expected>& param_info) {
      return std::string(mapreduce::to_string(param_info.param.policy));
    });

}  // namespace
}  // namespace vhadoop
