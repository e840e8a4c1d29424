// Property battery for the trace-driven workload engine: across a sweep of
// seeds and every scheduler policy,
//   1. the same seed yields byte-identical serialized traces AND
//      byte-identical metrics registries across two independent replays,
//   2. no job is ever submitted before its trace arrival instant (audited
//      independently of the replayer's own bookkeeping),
//   3. per-tenant admission caps are never exceeded at any submit instant.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mapreduce/hadoop_config.hpp"
#include "testutil/sim_cluster.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"

using namespace vhadoop;
using mapreduce::SchedulerPolicy;

namespace {

workloads::TraceGenConfig gen_config(std::uint64_t seed) {
  workloads::TraceGenConfig cfg;
  cfg.num_jobs = 60;
  cfg.horizon_seconds = 900.0;
  cfg.num_tenants = 6;
  // Alternate arrival processes across the sweep so both are exercised.
  cfg.process = seed % 2 == 0 ? workloads::ArrivalProcess::Bursty
                              : workloads::ArrivalProcess::Poisson;
  cfg.seed = seed;
  return cfg;
}

mapreduce::HadoopConfig hadoop_config(SchedulerPolicy policy) {
  mapreduce::HadoopConfig hconf;
  hconf.scheduler = policy;
  if (policy == SchedulerPolicy::Capacity) {
    hconf.queues = {{"interactive", 0.6, 1.0, 1.0}, {"batch", 0.4, 1.0, 1.0}};
  }
  return hconf;
}

workloads::AdmissionConfig tight_admission() {
  // Caps low enough that a bursty 60-job trace actually trips them.
  workloads::AdmissionConfig admission;
  admission.max_concurrent_per_tenant = 3;
  admission.max_pending_bytes_per_tenant = 1.5 * sim::kGiB;
  return admission;
}

struct ReplayOutcome {
  std::string metrics_json;
  double makespan = 0.0;
  int accepted = 0;
  int rejected = 0;
  int completed = 0;
  double max_submit_skew = 0.0;
  int audited_submits = 0;
  int cap_violations = 0;
  int early_submits = 0;
  int late_submits = 0;
};

/// One full replay on a fresh 4-worker cluster. The SubmitFn is interposed:
/// it re-derives each job's trace record from the spec name ("family-<idx>")
/// and audits arrival timing and admission caps with its own counters before
/// forwarding to the real runner.
ReplayOutcome replay(SchedulerPolicy policy, const workloads::WorkloadTrace& trace,
                     const workloads::AdmissionConfig& admission) {
  auto cluster = testutil::SimCluster::make(4, /*cross=*/false, hadoop_config(policy));
  ReplayOutcome out;
  const double epoch = cluster->engine.now();

  struct Audit {
    int in_flight = 0;
    double pending_bytes = 0.0;
  };
  auto audit = std::make_shared<std::map<std::string, Audit>>();

  auto* runner = cluster->runner.get();
  auto* engine = &cluster->engine;
  workloads::TraceReplayer replayer(
      cluster->engine, cluster->engine.metrics(), trace,
      [&, audit](mapreduce::SimJobSpec spec,
                 std::function<void(const mapreduce::JobTimeline&)> done) {
        ++out.audited_submits;
        // Independent arrival check: the record index is encoded in the name.
        const std::size_t dash = spec.name.rfind('-');
        const std::size_t idx = std::stoul(spec.name.substr(dash + 1));
        const double arrival = trace.records[idx].arrival_seconds;
        if (engine->now() < epoch + arrival - 1e-9) ++out.early_submits;
        if (engine->now() > epoch + arrival + 1e-9) ++out.late_submits;

        // Independent admission-cap check, keyed on the submitting user.
        Audit& a = (*audit)[spec.user];
        double bytes = 0.0;
        for (const auto& m : spec.maps) bytes += m.input_bytes;
        ++a.in_flight;
        a.pending_bytes += bytes;
        if (a.in_flight > admission.max_concurrent_per_tenant ||
            a.pending_bytes > admission.max_pending_bytes_per_tenant) {
          ++out.cap_violations;
        }
        const std::string user = spec.user;
        runner->submit(std::move(spec),
                       [audit, user, bytes, done = std::move(done)](
                           const mapreduce::JobTimeline& t) {
                         Audit& b = (*audit)[user];
                         --b.in_flight;
                         b.pending_bytes -= bytes;
                         done(t);
                       });
      },
      admission);

  out.makespan = replayer.run_to_completion();
  EXPECT_TRUE(replayer.finished());
  out.accepted = replayer.accepted();
  out.rejected = replayer.rejected();
  out.completed = replayer.completed();
  out.max_submit_skew = replayer.max_submit_skew();
  out.metrics_json = cluster->engine.metrics().to_json();
  return out;
}

class TraceEngineSweep
    : public ::testing::TestWithParam<std::tuple<SchedulerPolicy, std::uint64_t>> {};

TEST_P(TraceEngineSweep, ReplayIsDeterministicOpenLoopAndCapRespecting) {
  const auto [policy, seed] = GetParam();
  const workloads::AdmissionConfig admission = tight_admission();

  const workloads::WorkloadTrace trace = workloads::generate_trace(gen_config(seed));
  EXPECT_EQ(workloads::generate_trace(gen_config(seed)).serialize(), trace.serialize())
      << "trace generation is not a pure function of its config";

  const ReplayOutcome a = replay(policy, trace, admission);
  const ReplayOutcome b = replay(policy, trace, admission);

  // (1) Determinism: two full replays agree byte for byte.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);

  // (2) Open loop: nothing submits before its arrival — by the replayer's
  // own accounting and by the interposed auditor's.
  EXPECT_LE(a.max_submit_skew, 1e-9);
  EXPECT_EQ(a.early_submits, 0);
  EXPECT_EQ(a.late_submits, 0) << "arrivals must not lag their trace instants";

  // (3) Admission caps hold at every submit instant.
  EXPECT_EQ(a.cap_violations, 0);

  // Sanity: every record was either submitted or rejected, and accepted
  // jobs all completed (no faults are injected here).
  EXPECT_EQ(a.accepted + a.rejected, static_cast<int>(trace.records.size()));
  EXPECT_EQ(a.audited_submits, a.accepted);
  EXPECT_EQ(a.completed, a.accepted);
}

std::vector<std::tuple<SchedulerPolicy, std::uint64_t>> sweep_params() {
  std::vector<std::tuple<SchedulerPolicy, std::uint64_t>> params;
  for (const auto policy : {SchedulerPolicy::Fifo, SchedulerPolicy::Fair,
                            SchedulerPolicy::Capacity, SchedulerPolicy::Deadline}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) params.emplace_back(policy, seed);
  }
  return params;
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<SchedulerPolicy, std::uint64_t>>& info) {
  return std::string(mapreduce::to_string(std::get<0>(info.param))) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, TraceEngineSweep, ::testing::ValuesIn(sweep_params()),
                         sweep_name);

// A trace with a long quiet gap before its tail: Engine::run() alone would
// strand the daemon arrivals past the gap; run_to_completion() must not.
TEST(TraceReplayer, SurvivesQuietGapsInTheTrace) {
  workloads::WorkloadTrace trace;
  for (double t : {0.0, 1.0, 3600.0}) {
    workloads::TraceRecord r;
    r.arrival_seconds = t;
    r.family = workloads::JobFamily::Mrbench;
    r.input_mb = 8.0;
    trace.records.push_back(r);
  }
  auto cluster = testutil::SimCluster::make(2, false, hadoop_config(SchedulerPolicy::Fifo));
  auto* runner = cluster->runner.get();
  workloads::TraceReplayer replayer(
      cluster->engine, cluster->engine.metrics(), trace,
      [runner](mapreduce::SimJobSpec spec,
               std::function<void(const mapreduce::JobTimeline&)> done) {
        runner->submit(std::move(spec), std::move(done));
      });
  const double makespan = replayer.run_to_completion();
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.completed(), 3);
  EXPECT_GE(makespan, 3600.0);  // the tail job really ran after the gap
}

// An engine driven past the last arrival before run_to_completion() has
// fired every arrival already: the replay must still drain and finish, and
// the clock must not be sent back to the last arrival.
TEST(TraceReplayer, CompletesOnAnEngineAlreadyDrivenPastTheLastArrival) {
  workloads::WorkloadTrace trace;
  for (double t : {0.0, 1.0}) {
    workloads::TraceRecord r;
    r.arrival_seconds = t;
    r.family = workloads::JobFamily::Mrbench;
    r.input_mb = 8.0;
    trace.records.push_back(r);
  }
  auto cluster = testutil::SimCluster::make(2, false, hadoop_config(SchedulerPolicy::Fifo));
  auto* runner = cluster->runner.get();
  workloads::TraceReplayer replayer(
      cluster->engine, cluster->engine.metrics(), trace,
      [runner](mapreduce::SimJobSpec spec,
               std::function<void(const mapreduce::JobTimeline&)> done) {
        runner->submit(std::move(spec), std::move(done));
      });
  replayer.start();
  const double epoch = cluster->engine.now();
  cluster->engine.run_until(epoch + 2.0);
  ASSERT_LT(replayer.completed(), 2);  // a job is still running
  double makespan = 0.0;
  EXPECT_NO_THROW(makespan = replayer.run_to_completion());
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.completed(), 2);
  EXPECT_GT(makespan, 2.0);
  EXPECT_GT(cluster->engine.now(), epoch + 2.0);
}

// Rejections surface in the per-queue admission counter, not just totals.
TEST(TraceReplayer, RejectionsLandInPerQueueCounters) {
  workloads::WorkloadTrace trace;
  for (int j = 0; j < 6; ++j) {
    workloads::TraceRecord r;
    r.arrival_seconds = 0.0;
    r.tenant = "hog";
    r.queue = "interactive";
    r.family = workloads::JobFamily::Mrbench;
    r.input_mb = 8.0;
    trace.records.push_back(r);
  }
  auto cluster = testutil::SimCluster::make(2, false, hadoop_config(SchedulerPolicy::Fifo));
  auto* runner = cluster->runner.get();
  workloads::AdmissionConfig admission;
  admission.max_concurrent_per_tenant = 2;
  workloads::TraceReplayer replayer(
      cluster->engine, cluster->engine.metrics(), trace,
      [runner](mapreduce::SimJobSpec spec,
               std::function<void(const mapreduce::JobTimeline&)> done) {
        runner->submit(std::move(spec), std::move(done));
      },
      admission);
  replayer.run_to_completion();
  EXPECT_EQ(replayer.accepted(), 2);
  EXPECT_EQ(replayer.rejected(), 4);
  EXPECT_EQ(cluster->engine.metrics()
                .counter("mr.queue.interactive.admission_rejected")
                ->value(),
            4.0);
}

}  // namespace
