#pragma once

// One bench/tenant_day configuration as a scenario shared with the tier-1
// parity lock (tests/integration/tenant_parity_test.cpp), so the bench and
// the lock can never drift apart: the paper cluster under one scheduler
// policy, replaying a generated trace open-loop through per-tenant
// admission. Construction boots the cluster; callers time run() as they
// like.

#include <functional>
#include <optional>
#include <utility>

#include "common.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"

namespace vhadoop::bench {

/// The generator settings of bench/tenant_day's traces: `jobs` jobs, seed 7
/// (the quick trace has 2000 jobs, the full day 10000).
inline workloads::TraceGenConfig tenant_day_trace_config(int jobs) {
  workloads::TraceGenConfig gen;
  gen.num_jobs = jobs;
  gen.seed = 7;
  return gen;
}

class TenantReplay {
 public:
  TenantReplay(mapreduce::SchedulerPolicy policy, const workloads::WorkloadTrace& trace) {
    core::ClusterSpec spec = paper_cluster(core::Placement::Normal);
    spec.hadoop.scheduler = policy;
    if (policy == mapreduce::SchedulerPolicy::Capacity) {
      spec.hadoop.queues = {{"interactive", 0.6, 1.0, 1.0}, {"batch", 0.4, 1.0, 1.0}};
    }
    platform_.boot_cluster(spec);
    replayer_.emplace(platform_.engine(), platform_.metrics(), trace,
                      [this](mapreduce::SimJobSpec job,
                             std::function<void(const mapreduce::JobTimeline&)> done) {
                        platform_.submit_job(std::move(job), std::move(done));
                      });
  }

  TenantReplay(const TenantReplay&) = delete;
  TenantReplay& operator=(const TenantReplay&) = delete;

  /// Replay the whole trace; returns the simulated makespan.
  double run() { return replayer_->run_to_completion(); }

  core::Platform& platform() { return platform_; }
  const workloads::TraceReplayer& replayer() const { return *replayer_; }

 private:
  core::Platform platform_;
  std::optional<workloads::TraceReplayer> replayer_;  ///< needs the booted cluster
};

}  // namespace vhadoop::bench
