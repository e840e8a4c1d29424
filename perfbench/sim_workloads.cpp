// The two discrete-event simulator workloads.
//
//   sim-scale-512   512-VM Spread cluster, staged with a corpus upload and
//                   TeraGen; timed part: the Wordcount + TeraSort pair of
//                   bench/scale_cluster. Fluid-solver bound.
//   sim-tenant-day  a generated 10k-job day from 20 tenants, replayed
//                   open-loop with per-tenant admission on the paper's 16-VM
//                   cluster under FIFO. Scheduler/dispatch bound.
//
// Untraced iterations run the production entry points (Platform::run_job,
// TraceReplayer::run_to_completion). Traced iterations submit the same work
// and drive the engine one Engine::step() at a time, charging each step's
// host time to the fluid, sched or other class by which public registry
// counters it moved. Both kinds must leave byte-identical registries.

#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/platform.hpp"
#include "workloads/terasort.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"

namespace perfbench {
namespace {

using namespace vhadoop;

enum StepClass : std::uint8_t { kFluid = 0, kSched = 1, kOther = 2 };
constexpr const char* kClassNames[] = {"fluid", "sched", "other"};

/// Host time of one traced step loop, split by step class.
struct StepProfile {
  struct Span {
    double sim_time;
    std::int64_t start_ns;  ///< from the first traced step of the iteration
    std::int64_t dur_ns;
    StepClass cls;
  };

  std::int64_t loop_ns = 0;
  std::int64_t class_ns[3] = {};
  std::int64_t class_steps[3] = {};
  double recomputes = 0.0;
  double same_instant_recomputes = 0.0;
  double sched_heartbeats = 0.0;  ///< heartbeats fired in sched-class steps
  std::vector<Span> spans;
};

/// Drives an engine event by event, timing each step from outside.
///
/// Each step is charged whole to one class: `fluid` if sim.fluid.recomputes
/// rose during it, else `sched` if mr.heartbeats rose, else `other`. The
/// clock is read once per step, so the classes tile the loop's host time
/// exactly (the bookkeeping between two steps lands in the later one).
class StepLoop {
 public:
  StepLoop(const obs::Registry& registry, StepProfile& profile)
      : recomputes_(registry.find_counter("sim.fluid.recomputes")),
        heartbeats_(registry.find_counter("mr.heartbeats")),
        profile_(profile) {}

  /// Step until no live event remains. With no daemon events pending this
  /// fires exactly the events Engine::run() would.
  void drain(sim::Engine& engine) {
    const Clock::time_point start = Clock::now();
    if (!started_) {
      origin_ = start;
      started_ = true;
    }
    Clock::time_point prev = start;
    while (engine.pending() > 0) {
      const double r0 = recomputes_->value();
      const double h0 = heartbeats_->value();
      engine.step();
      const Clock::time_point now = Clock::now();
      const double dr = recomputes_->value() - r0;
      const double dh = heartbeats_->value() - h0;
      StepClass cls = kOther;
      if (dr > 0.0) {
        cls = kFluid;
        profile_.recomputes += dr;
        // A re-solve repeats an instant when the re-solve before it (in this
        // step, or in the last re-solving step) ran at the same simulated
        // time. Exact compare: both sides are readings of one engine clock.
        const bool repeat = have_resolve_ && engine.now() == last_resolve_at_;
        profile_.same_instant_recomputes += repeat ? dr : dr - 1.0;
        have_resolve_ = true;
        last_resolve_at_ = engine.now();
      } else if (dh > 0.0) {
        cls = kSched;
        profile_.sched_heartbeats += dh;
      }
      const std::int64_t ns = ns_between(prev, now);
      profile_.class_ns[cls] += ns;
      ++profile_.class_steps[cls];
      profile_.spans.push_back({engine.now(), ns_between(origin_, prev), ns, cls});
      prev = now;
    }
    profile_.loop_ns += ns_between(start, prev);
  }

 private:
  const obs::Counter* recomputes_;
  const obs::Counter* heartbeats_;
  StepProfile& profile_;
  Clock::time_point origin_{};
  bool started_ = false;
  bool have_resolve_ = false;
  double last_resolve_at_ = 0.0;
};

double counter(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c ? c->value() : 0.0;
}

double histogram_sum(const obs::Registry& registry, const char* name) {
  const obs::Histogram* h = registry.find_histogram(name);
  return h ? h->sum() : 0.0;
}

/// Registry counters the per-layer metrics report as deltas over the timed
/// part of an iteration.
struct RunCounters {
  double events = 0, cancelled = 0, heartbeats = 0, map_attempts = 0;
  double node_local = 0, rack_local = 0, off_rack = 0, solved_activities = 0;

  static RunCounters read(const obs::Registry& r) {
    RunCounters c;
    c.events = counter(r, "sim.events_fired");
    c.cancelled = counter(r, "sim.events_cancelled");
    c.heartbeats = counter(r, "mr.heartbeats");
    c.map_attempts = counter(r, "mr.map_attempts");
    c.node_local = counter(r, "mr.locality.node");
    c.rack_local = counter(r, "mr.locality.rack");
    c.off_rack = counter(r, "mr.locality.off");
    c.solved_activities = histogram_sum(r, "sim.fluid.component_size");
    return c;
  }
  RunCounters minus(const RunCounters& o) const {
    return {events - o.events,         cancelled - o.cancelled,
            heartbeats - o.heartbeats, map_attempts - o.map_attempts,
            node_local - o.node_local, rack_local - o.rack_local,
            off_rack - o.off_rack,     solved_activities - o.solved_activities};
  }
};

/// Everything one traced iteration measured.
struct SimTrace {
  StepProfile steps;
  RunCounters delta;
  double component_p95 = 0.0;
  double blocks_read = 0, blocks_written = 0, flows_started = 0;
  MetricList setup_layers;  ///< host ms of the set-up calls
  MetricList extra;         ///< workload-specific per-layer values
};

void write_layers(const SimTrace& t, MetricList& out) {
  const StepProfile& s = t.steps;
  const auto ns = [&](int cls) { return static_cast<double>(s.class_ns[cls]); };
  const double loop_ns = static_cast<double>(s.loop_ns);
  const auto share = [&](int cls) { return loop_ns > 0 ? 100.0 * ns(cls) / loop_ns : 0.0; };
  const auto ms = [&](int cls) { return ns(cls) / 1e6; };
  out.set("step_loop_ms", loop_ns / 1e6, "ms");
  out.set("engine.events", t.delta.events, "count");
  out.set("engine.cancelled", t.delta.cancelled, "count");
  out.set("engine.ns_per_event", t.delta.events > 0 ? loop_ns / t.delta.events : 0.0, "ns");
  out.set("fluid.step_ms", ms(kFluid), "ms");
  out.set("fluid.share", share(kFluid), "%");
  out.set("fluid.steps", static_cast<double>(s.class_steps[kFluid]), "count");
  out.set("fluid.recomputes", s.recomputes, "count");
  out.set("fluid.solved_activities", t.delta.solved_activities, "count");
  out.set("fluid.component_p95", t.component_p95, "count");
  out.set("fluid.ns_per_solved_activity",
          t.delta.solved_activities > 0 ? ns(kFluid) / t.delta.solved_activities : 0.0,
          "ns");
  out.set("fluid.same_instant_share",
          s.recomputes > 0 ? 100.0 * s.same_instant_recomputes / s.recomputes : 0.0, "%");
  out.set("sched.step_ms", ms(kSched), "ms");
  out.set("sched.share", share(kSched), "%");
  out.set("sched.steps", static_cast<double>(s.class_steps[kSched]), "count");
  out.set("sched.heartbeats", t.delta.heartbeats, "count");
  out.set("sched.us_per_heartbeat",
          s.sched_heartbeats > 0 ? ns(kSched) / 1e3 / s.sched_heartbeats : 0.0, "us");
  out.set("other.step_ms", ms(kOther), "ms");
  out.set("other.share", share(kOther), "%");
  out.set("other.steps", static_cast<double>(s.class_steps[kOther]), "count");
  out.set("mr.map_attempts", t.delta.map_attempts, "count");
  const double placed = t.delta.node_local + t.delta.rack_local + t.delta.off_rack;
  out.set("mr.locality_node_share", placed > 0 ? 100.0 * t.delta.node_local / placed : 0.0, "%");
  for (const auto& e : t.setup_layers.entries()) out.set(e.name, e.value, e.unit);
  out.set("hdfs.blocks_read", t.blocks_read, "count");
  out.set("hdfs.blocks_written", t.blocks_written, "count");
  out.set("net.flows_started", t.flows_started, "count");
  for (const auto& e : t.extra.entries()) out.set(e.name, e.value, e.unit);
}

std::string write_step_spans(const StepProfile& s, const std::string& path) {
  std::ofstream out(path);
  if (!out) return {};
  out << "class,start_ns,dur_ns,sim_time_s\n";
  char line[96];
  for (const auto& span : s.spans) {
    std::snprintf(line, sizeof line, "%s,%lld,%lld,%.9f\n", kClassNames[span.cls],
                  static_cast<long long>(span.start_ns), static_cast<long long>(span.dur_ns),
                  span.sim_time);
    out << line;
  }
  return out ? path : std::string();
}

/// Base for both simulator workloads: keeps the traced iteration with the
/// median step-loop time and reports its layers.
class SimWorkload : public Workload {
 public:
  void layers(MetricList& out) const override {
    if (traces_.empty()) return;
    std::vector<const SimTrace*> order;
    for (const SimTrace& t : traces_) order.push_back(&t);
    std::sort(order.begin(), order.end(), [](const SimTrace* a, const SimTrace* b) {
      return a->steps.loop_ns < b->steps.loop_ns;
    });
    write_layers(*order[(order.size() - 1) / 2], out);
  }
  std::int64_t spans_per_iteration() const override {
    return traces_.empty() ? 0 : static_cast<std::int64_t>(traces_.back().steps.spans.size());
  }
  std::string write_spans(const std::string& path) const override {
    return traces_.empty() ? std::string() : write_step_spans(traces_.back().steps, path);
  }

 protected:
  /// Fill the registry-derived parts of a traced iteration's record and
  /// keep it (with its spans; earlier iterations drop theirs).
  void keep_trace(SimTrace t, const obs::Registry& registry, const RunCounters& before) {
    t.delta = RunCounters::read(registry).minus(before);
    if (const obs::Histogram* h = registry.find_histogram("sim.fluid.component_size")) {
      t.component_p95 = h->percentile(0.95);
    }
    t.blocks_read = counter(registry, "hdfs.blocks_read");
    t.blocks_written = counter(registry, "hdfs.blocks_written");
    t.flows_started = counter(registry, "net.flows_started");
    if (!traces_.empty()) traces_.back().steps.spans = {};
    traces_.push_back(std::move(t));
  }

  std::vector<SimTrace> traces_;
  std::vector<double> sim_rate_;  ///< simulated seconds per host second, untraced
};

// --- sim-scale-512 ---------------------------------------------------------

/// bench/scale_cluster's Wordcount: one CPU-bound map per corpus block and a
/// small shuffle.
mapreduce::SimJobSpec wordcount_job(const hdfs::HdfsCluster& hdfs, int reduces) {
  mapreduce::SimJobSpec spec;
  spec.name = "wordcount";
  const int blocks = static_cast<int>(hdfs.blocks("/in/corpus").size());
  for (int b = 0; b < blocks; ++b) spec.maps.push_back({"/in/corpus", b, 0.0, 2.0, 2 * sim::kMiB});
  spec.reduces.assign(static_cast<std::size_t>(reduces), {0.3, sim::kMiB});
  spec.output_path = "/out/wc";
  return spec;
}

class SimScale final : public SimWorkload {
 public:
  SimScale(const Options& opts, Outcome& outcome)
      : opts_(opts), outcome_(outcome), vms_(opts.tiny ? 32 : 512) {}

  int min_iterations(bool traced) const override { return traced ? 1 : 3; }

  Iteration iterate(bool traced) override {
    Iteration it;
    SimTrace trace;
    const Stopwatch setup;
    core::TestbedConfig testbed;
    testbed.num_hosts = vms_ / 16;  // ~16 one-vCPU guests per 16-core host
    core::Platform platform(testbed);
    core::ClusterSpec spec;
    spec.num_workers = vms_ - 1;
    spec.placement = core::Placement::Spread;
    spec.hdfs.block_size = 8 * sim::kMiB;  // one block per VM
    spec.seed = opts_.seed;
    const int reduces = vms_ / 32;

    Clock::time_point t = Clock::now();
    platform.boot_cluster(spec);
    trace.setup_layers.set("virt.boot_ms", 1e3 * seconds_since(t), "ms");

    workloads::TeraSort tera;
    const double input_bytes = vms_ * 8.0 * sim::kMiB;
    tera.total_bytes = input_bytes;
    tera.block_size = spec.hdfs.block_size;
    tera.num_reduces = reduces;
    t = Clock::now();
    platform.upload("/in/corpus", input_bytes);
    trace.setup_layers.set("hdfs.upload_ms", 1e3 * seconds_since(t), "ms");
    t = Clock::now();
    const bool staged = !platform.run_job(tera.sim_teragen("/in/tera")).failed;
    trace.setup_layers.set("hdfs.teragen_ms", 1e3 * seconds_since(t), "ms");
    it.set_setup(setup);
    outcome_.check(staged, "sim-scale-512: TeraGen staging failed");

    sim::Engine& engine = platform.engine();
    const RunCounters before = RunCounters::read(platform.metrics());
    const double sim0 = engine.now();
    mapreduce::JobTimeline wc, ts;
    const Stopwatch run;
    if (!traced) {
      wc = platform.run_job(wordcount_job(platform.hdfs(), reduces));
      ts = platform.run_job(tera.sim_terasort("/in/tera", "/out/tera"));
    } else {
      StepLoop loop(platform.metrics(), trace.steps);
      bool wc_done = false, ts_done = false;
      platform.submit_job(wordcount_job(platform.hdfs(), reduces),
                          [&](const mapreduce::JobTimeline& tl) {
                            wc = tl;
                            wc_done = true;
                          });
      loop.drain(engine);
      platform.submit_job(tera.sim_terasort("/in/tera", "/out/tera"),
                          [&](const mapreduce::JobTimeline& tl) {
                            ts = tl;
                            ts_done = true;
                          });
      loop.drain(engine);
      outcome_.check(wc_done && ts_done, "sim-scale-512: traced jobs did not complete");
    }
    it.set_run(run);

    outcome_.operations(2, static_cast<int>(wc.failed) + static_cast<int>(ts.failed));
    makespan_ = wc.elapsed() + ts.elapsed();
    it.fingerprint = platform.metrics().to_json();
    if (opts_.corrupt && traced) it.fingerprint += ' ';
    if (traced) {
      keep_trace(std::move(trace), platform.metrics(), before);
    } else {
      sim_rate_.push_back((engine.now() - sim0) / it.run_wall_s);
    }
    return it;
  }

  void end_to_end(MetricList& out) const override {
    out.set("sim_s_per_wall_s", median(sim_rate_), "1");
    out.set("sim_makespan_s", makespan_, "s");
  }

 private:
  const Options& opts_;
  Outcome& outcome_;
  int vms_;
  double makespan_ = 0.0;
};

// --- sim-tenant-day --------------------------------------------------------

class SimTenantDay final : public SimWorkload {
 public:
  SimTenantDay(const Options& opts, Outcome& outcome) : opts_(opts), outcome_(outcome) {}

  int min_iterations(bool traced) const override { return traced ? 1 : 3; }

  Iteration iterate(bool traced) override {
    Iteration it;
    SimTrace trace;
    const Stopwatch setup;
    workloads::TraceGenConfig gen;
    gen.num_jobs = opts_.tiny ? 300 : 10000;
    gen.num_tenants = 20;
    gen.seed = opts_.seed;
    workloads::WorkloadTrace day = workloads::generate_trace(gen);
    const auto jobs = static_cast<std::int64_t>(day.records.size());

    core::Platform platform;  // the paper's two-host testbed
    core::ClusterSpec spec;
    spec.num_workers = 15;
    spec.placement = core::Placement::Normal;
    spec.hadoop.scheduler = mapreduce::SchedulerPolicy::Fifo;
    spec.seed = opts_.seed;
    Clock::time_point t = Clock::now();
    platform.boot_cluster(spec);
    trace.setup_layers.set("virt.boot_ms", 1e3 * seconds_since(t), "ms");
    it.set_setup(setup);

    workloads::TraceReplayer replayer(
        platform.engine(), platform.metrics(), std::move(day),
        [&platform](mapreduce::SimJobSpec job,
                    std::function<void(const mapreduce::JobTimeline&)> done) {
          platform.submit_job(std::move(job), std::move(done));
        });
    sim::Engine& engine = platform.engine();
    const RunCounters before = RunCounters::read(platform.metrics());
    const double sim0 = engine.now();
    const Stopwatch run;
    if (!traced) {
      replayer.run_to_completion();
    } else {
      // Arrivals are daemon events, so the queue empties only once the
      // last arrival has fired and every accepted job has drained: the
      // same events run_until(last arrival) + run() fire.
      StepLoop loop(platform.metrics(), trace.steps);
      replayer.start();
      loop.drain(engine);
    }
    it.set_run(run);

    int accepted = replayer.accepted();
    if (opts_.corrupt) ++accepted;
    outcome_.operations(jobs, replayer.failed(), replayer.rejected());
    outcome_.check(accepted + replayer.rejected() == jobs,
                   "sim-tenant-day: accepted + rejected != trace size");
    outcome_.check(replayer.completed() + replayer.failed() == accepted,
                   "sim-tenant-day: an accepted job never finished");
    outcome_.check(replayer.max_submit_skew() <= 1e-9,
                   "sim-tenant-day: a job was submitted after its trace arrival");
    p50_ = replayer.latency_percentile(0.50);
    p99_ = replayer.latency_percentile(0.99);
    slo_miss_pct_ = 100.0 * replayer.slo_miss_rate();
    it.fingerprint = platform.metrics().to_json();
    if (traced) {
      trace.extra.set("trace.accepted", replayer.accepted(), "count");
      trace.extra.set("trace.rejected", replayer.rejected(), "count");
      trace.extra.set("trace.max_submit_skew_s", replayer.max_submit_skew(), "s");
      keep_trace(std::move(trace), platform.metrics(), before);
    } else {
      sim_rate_.push_back((engine.now() - sim0) / it.run_wall_s);
    }
    return it;
  }

  void end_to_end(MetricList& out) const override {
    out.set("sim_s_per_wall_s", median(sim_rate_), "1");
    out.set("p50_latency_s", p50_, "s");
    out.set("p99_latency_s", p99_, "s");
    out.set("slo_miss_pct", slo_miss_pct_, "%");
  }

 private:
  const Options& opts_;
  Outcome& outcome_;
  double p50_ = 0.0, p99_ = 0.0, slo_miss_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sim_scale(const Options& opts, Outcome& outcome) {
  return std::make_unique<SimScale>(opts, outcome);
}

std::unique_ptr<Workload> make_sim_tenant_day(const Options& opts, Outcome& outcome) {
  return std::make_unique<SimTenantDay>(opts, outcome);
}

}  // namespace perfbench
