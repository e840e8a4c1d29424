// tenant_day — multi-tenant trace-replay harness: a generated day of bursty
// traffic from 20 tenants is replayed open-loop through per-tenant admission
// control under every scheduler policy, and the per-tenant latency/SLO
// outcomes are compared head-to-head.
//
//   tenant_day [--quick]
//
// --quick replays only the 2k-job trace (the ctest fixture); the full run
// (CI bench job) replays the 2k trace AND the 10k-job day so its BENCH rows
// are a superset of the quick fixture's. Every configuration is replayed
// twice and the runs must be byte-identical (serialized trace + metrics
// registry JSON) — any divergence exits 1. The run also asserts that the
// deadline scheduler's aggregate SLO-miss rate beats FIFO's on each trace.
// Any other argument prints the usage line and exits 2.
//
// Each row also carries the replay's heartbeats and fired events (gated:
// deterministic) and its host cost: `host_s`, the wall seconds of the faster
// of the two replays, and `sim_s_per_wall_s` (ungated: machine-dependent).
//
// Writes BENCH_tenant_day.json (see bench/common.hpp) gated by
// bench/baselines/tenant_day.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tenant_replay.hpp"

using namespace vhadoop;

namespace {

// vlint: allow(no-wall-clock) audited PR 15: host-clock stopwatch around run_to_completion(); never feeds simulation state
using WallClock = std::chrono::steady_clock;

struct ReplayResult {
  int accepted = 0;
  int rejected = 0;
  int completed = 0;
  int failed = 0;
  int slo_missed = 0;
  int slo_tracked = 0;
  double miss_rate = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double makespan = 0.0;
  double max_skew = 0.0;
  double heartbeats = 0.0;
  double events_fired = 0.0;
  double host_s = 0.0;  ///< wall seconds in run_to_completion()
  double sim_s = 0.0;   ///< simulated seconds it advanced the clock
  std::string metrics_json;
  std::vector<workloads::TenantReplayStats> tenants;
};

ReplayResult run_once(mapreduce::SchedulerPolicy policy, const workloads::WorkloadTrace& trace) {
  bench::TenantReplay day(policy, trace);
  ReplayResult r;
  const double sim0 = day.platform().engine().now();
  const WallClock::time_point t0 = WallClock::now();
  r.makespan = day.run();
  r.host_s = std::chrono::duration<double>(WallClock::now() - t0).count();
  r.sim_s = day.platform().engine().now() - sim0;
  const workloads::TraceReplayer& replayer = day.replayer();
  r.accepted = replayer.accepted();
  r.rejected = replayer.rejected();
  r.completed = replayer.completed();
  r.failed = replayer.failed();
  r.slo_missed = replayer.slo_missed();
  r.slo_tracked = replayer.slo_tracked();
  r.miss_rate = replayer.slo_miss_rate();
  r.p50 = replayer.latency_percentile(0.50);
  r.p95 = replayer.latency_percentile(0.95);
  r.p99 = replayer.latency_percentile(0.99);
  r.max_skew = replayer.max_submit_skew();
  const obs::Registry& metrics = day.platform().metrics();
  r.heartbeats = metrics.find_counter("mr.heartbeats")->value();
  r.events_fired = metrics.find_counter("sim.events_fired")->value();
  r.metrics_json = metrics.to_json();
  r.tenants = replayer.tenant_stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "tenant_day: unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  struct Scale {
    const char* tag;
    int jobs;
  };
  std::vector<Scale> scales = {{"quick", 2000}};
  if (!quick) scales.push_back({"full", 10000});

  const mapreduce::SchedulerPolicy policies[] = {
      mapreduce::SchedulerPolicy::Fifo, mapreduce::SchedulerPolicy::Fair,
      mapreduce::SchedulerPolicy::Capacity, mapreduce::SchedulerPolicy::Deadline};

  bench::BenchResults results("tenant_day");
  bool ok = true;

  for (const Scale& scale : scales) {
    // The generator itself must be a pure function of its config.
    const workloads::TraceGenConfig gen = bench::tenant_day_trace_config(scale.jobs);
    const auto trace = workloads::generate_trace(gen);
    if (workloads::generate_trace(gen).serialize() != trace.serialize()) {
      std::fprintf(stderr, "FAIL: trace generation (%s) is not deterministic\n", scale.tag);
      ok = false;
    }

    std::printf("== %s trace: %zu jobs over %.0f s, last arrival %.0f s ==\n", scale.tag,
                trace.records.size(), gen.horizon_seconds, trace.last_arrival());
    std::printf("%-9s %9s %9s %9s %11s %10s %10s %12s %10s %8s\n", "scheduler", "accepted",
                "rejected", "slo_miss", "miss_rate", "p50_s", "p95_s", "makespan_s",
                "heartbeats", "host_s");

    double fifo_miss_rate = 0.0, deadline_miss_rate = 0.0;
    for (const auto policy : policies) {
      const ReplayResult r = run_once(policy, trace);
      // Replay the identical trace again: the whole stack (generator,
      // admission, scheduler, simulation) must reproduce byte-for-byte.
      const ReplayResult r2 = run_once(policy, trace);
      if (r.metrics_json != r2.metrics_json) {
        std::fprintf(stderr, "FAIL: %s/%s replay metrics diverge between runs\n", scale.tag,
                     mapreduce::to_string(policy));
        ok = false;
      }
      if (r.max_skew > 1e-9) {
        std::fprintf(stderr, "FAIL: %s/%s submitted %.3g s after trace arrival\n", scale.tag,
                     mapreduce::to_string(policy), r.max_skew);
        ok = false;
      }

      const double host_s = std::min(r.host_s, r2.host_s);
      std::printf("%-9s %9d %9d %4d/%-4d %10.1f%% %10.1f %10.1f %12.1f %10.0f %8.3f\n",
                  mapreduce::to_string(policy), r.accepted, r.rejected, r.slo_missed,
                  r.slo_tracked, 100.0 * r.miss_rate, r.p50, r.p95, r.makespan, r.heartbeats,
                  host_s);
      if (policy == mapreduce::SchedulerPolicy::Fifo) fifo_miss_rate = r.miss_rate;
      if (policy == mapreduce::SchedulerPolicy::Deadline) {
        deadline_miss_rate = r.miss_rate;
        std::printf("  per-tenant (deadline): tenant accepted rejected missed p95_s\n");
        for (const auto& ts : r.tenants) {
          std::printf("    %-6s %8d %8d %6d %8.1f\n", ts.tenant.c_str(), ts.accepted,
                      ts.rejected, ts.slo_missed, ts.latency_percentile(0.95));
        }
      }

      results.row()
          .col("scheduler", mapreduce::to_string(policy))
          .col("trace", scale.tag)
          .col("jobs", static_cast<double>(trace.records.size()))
          .col("accepted", r.accepted)
          .col("rejected", r.rejected)
          .col("completed", r.completed)
          .col("failed", r.failed)
          .col("slo_missed", r.slo_missed)
          .col("slo_tracked", r.slo_tracked)
          .col("slo_miss_pct", 100.0 * r.miss_rate)
          .col("p50_latency_s", r.p50)
          .col("p95_latency_s", r.p95)
          .col("p99_latency_s", r.p99)
          .col("makespan_s", r.makespan)
          .col("heartbeats", r.heartbeats)
          .col("events_fired", r.events_fired)
          .col("host_s", host_s)
          .col("sim_s_per_wall_s", host_s > 0.0 ? r.sim_s / host_s : 0.0);
    }

    // The headline claim: EDF + admission awareness beats head-of-line
    // blocking on deadline traffic.
    if (!(deadline_miss_rate < fifo_miss_rate)) {
      std::fprintf(stderr,
                   "FAIL: deadline SLO-miss rate %.3f does not beat fifo %.3f (%s trace)\n",
                   deadline_miss_rate, fifo_miss_rate, scale.tag);
      ok = false;
    }
  }

  if (results.write().empty()) return 1;
  if (!ok) return 1;
  std::printf("tenant_day: OK\n");
  return 0;
}
