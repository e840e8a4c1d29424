// vlint: allow-file(no-exact-float-compare) audited PR 8: bit-identity oracle; incremental and reference solvers must agree exactly
// Solver-scaling sweep: hadoop virtual clusters of 16 → 1024 VMs running a
// Wordcount + TeraSort pair sized to the cluster, once under the incremental
// fluid solver and once with the reference oracle enabled
// (VHADOOP_FLUID_REFERENCE=1, which re-verifies every component after every
// mutation — the cost profile of the old global recompute).
//
// Both modes execute the *same* simulation (DESIGN.md §10: the stored rates
// always equal the canonical per-component solution), so simulated makespans
// must agree bit-for-bit; only wall-clock differs. The speedup column is the
// acceptance metric for the incremental solver: ≥5× at 256 VMs.
// `solve_work` (activities summed over every component solve, a simulation
// output and so gated) measures how much solving the run needed;
// same-instant coalescing lowers it. `solve_classes` (activity classes summed
// over every solve, also gated) is what the solver actually iterates over:
// the gap between the two is what class aggregation saves. `sim_s_per_wall_s`
// is the simulator's host-speed yardstick and, being wall-clock, is recorded
// but never gated.
//
// Prints one row per (cluster size, job, mode) and writes
// BENCH_scale_cluster.json (BENCH_scale_cluster_<topology>.json for the
// non-default fabrics, so each topology gates against its own baseline).
// Flags:
//   --vms=16,64,256,1024   cluster sizes to sweep (total VMs incl. namenode)
//   --reference-max=256    largest size also run under the oracle (0 = never;
//                          the oracle is quadratic, 1024 takes minutes)
//   --topology=single-switch|fat-tree|rotor
//                          fabric model (default single-switch, the paper's)
//   --hosts-per-rack=2     rack width for the multi-rack fabrics; racks =
//                          ceil(hosts / hosts_per_rack)
//   --verify-every=1       oracle sampling period (VHADOOP_FLUID_VERIFY_EVERY)
//                          for reference runs; N>1 makes the oracle tractable
//                          at 1024+ VMs while still catching stale components

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/topology.hpp"
#include "scale_pair.hpp"

using namespace vhadoop;

namespace {

// vlint: allow(no-wall-clock) audited PR 8: host-clock stopwatch around engine.run(); never feeds simulation state
using WallClock = std::chrono::steady_clock;

double elapsed_ms(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0).count();
}

struct ScaleResult {
  int vms = 0;
  int racks = 1;
  bool reference = false;
  double boot_ms = 0.0;
  double upload_ms = 0.0;
  double wordcount_ms = 0.0;  ///< wall-clock per job
  double terasort_ms = 0.0;
  double wordcount_sim_s = 0.0;  ///< simulated seconds per job
  double terasort_sim_s = 0.0;
  double recomputes = 0.0;  ///< sim.fluid.recomputes (dirty-component solves)
  /// Activities summed over every solve (sim.fluid.component_size sum): the
  /// solver's work, which same-instant coalescing cuts.
  double solve_work = 0.0;
  /// Classes summed over every solve (sim.fluid.component_classes sum).
  double solve_classes = 0.0;
  double component_p95 = 0.0;
  double events_fired = 0.0;
  std::string metrics_json;
};

ScaleResult run_scale(int vms, bool reference, net::TopologyKind topology,
                      int hosts_per_rack) {
  // The oracle switch is read by FluidModel's constructor; flip it before
  // the Platform (and its engine) exist so both modes share one code path.
  setenv("VHADOOP_FLUID_REFERENCE", reference ? "1" : "0", 1);

  ScaleResult r;
  r.vms = vms;
  r.reference = reference;
  bench::ScalePair pair(vms, topology, hosts_per_rack);
  r.racks = pair.platform().fabric().rack_count();

  auto t0 = WallClock::now();
  pair.boot();
  r.boot_ms = elapsed_ms(t0);

  t0 = WallClock::now();
  pair.stage();
  r.upload_ms = elapsed_ms(t0);

  t0 = WallClock::now();
  r.wordcount_sim_s = pair.run_wordcount();
  r.wordcount_ms = elapsed_ms(t0);

  t0 = WallClock::now();
  r.terasort_sim_s = pair.run_terasort();
  r.terasort_ms = elapsed_ms(t0);

  const obs::Registry& metrics = pair.platform().metrics();
  if (const obs::Counter* c = metrics.find_counter("sim.fluid.recomputes")) {
    r.recomputes = c->value();
  }
  if (const obs::Histogram* h = metrics.find_histogram("sim.fluid.component_size")) {
    r.component_p95 = h->percentile(0.95);
    r.solve_work = h->sum();
  }
  if (const obs::Histogram* h = metrics.find_histogram("sim.fluid.component_classes")) {
    r.solve_classes = h->sum();
  }
  if (const obs::Counter* c = metrics.find_counter("sim.events_fired")) {
    r.events_fired = c->value();
  }
  r.metrics_json = metrics.to_json();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {16, 64, 256, 1024};
  int reference_max = 256;
  int hosts_per_rack = 2;
  int verify_every = 1;
  net::TopologyKind topology = net::TopologyKind::SingleSwitch;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--vms=16,64,...] [--reference-max=N] "
                 "[--topology=single-switch|fat-tree|rotor] [--hosts-per-rack=N] "
                 "[--verify-every=N]\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) return usage();
    const std::string name = arg.substr(0, eq), value = arg.substr(eq + 1);
    const char* need = nullptr;  // set when a numeric value is malformed
    if (name == "--vms") {
      if (!bench::parse_list_at_least(value, 2, sizes)) need = "comma-separated numbers >= 2";
    } else if (name == "--reference-max") {
      if (!bench::parse_at_least(value, 0, reference_max)) need = "a number >= 0";
    } else if (name == "--topology") {
      const auto kind = net::topology_kind_from_string(value);
      if (!kind) {
        std::fprintf(stderr, "unknown topology '%s' (single-switch|fat-tree|rotor)\n",
                     value.c_str());
        return 2;
      }
      topology = *kind;
    } else if (name == "--hosts-per-rack") {
      if (!bench::parse_at_least(value, 1, hosts_per_rack)) need = "a number >= 1";
    } else if (name == "--verify-every") {
      if (!bench::parse_at_least(value, 1, verify_every)) need = "a number >= 1";
    } else {
      return usage();
    }
    if (need != nullptr) {
      std::fprintf(stderr, "scale_cluster: %s needs %s, got '%s'\n", name.c_str(), need,
                   value.c_str());
      return usage();
    }
  }
  if (verify_every > 1) {
    setenv("VHADOOP_FLUID_VERIFY_EVERY", std::to_string(verify_every).c_str(), 1);
  }

  // Per-topology bench name, so each fabric gates against its own baseline
  // (bench/baselines/scale_cluster_fat_tree.json etc.).
  std::string bench_name = "scale_cluster";
  if (topology == net::TopologyKind::FatTree) bench_name += "_fat_tree";
  if (topology == net::TopologyKind::Rotor) bench_name += "_rotor";

  bench::BenchResults results(bench_name);
  std::printf("topology=%s hosts_per_rack=%d\n", net::to_string(topology), hosts_per_rack);
  std::printf("%6s %12s %10s %12s %12s %12s %12s %10s %12s %12s %12s\n", "vms", "mode",
              "boot_ms", "wc_ms", "tera_ms", "wc_sim_s", "tera_sim_s", "comp_p95", "solve_work",
              "solve_cls", "sim_s/wall_s");

  std::string last_metrics;
  for (int vms : sizes) {
    ScaleResult inc = run_scale(vms, /*reference=*/false, topology, hosts_per_rack);
    last_metrics = inc.metrics_json;
    bool have_ref = vms <= reference_max;
    ScaleResult ref;
    if (have_ref) {
      ref = run_scale(vms, /*reference=*/true, topology, hosts_per_rack);
      // Same simulation by construction; a mismatch means a stale component
      // escaped the incremental solver.
      if (ref.wordcount_sim_s != inc.wordcount_sim_s ||
          ref.terasort_sim_s != inc.terasort_sim_s) {
        std::fprintf(stderr,
                     "scale_cluster: simulated makespan diverged at %d VMs "
                     "(wc %.17g vs %.17g, tera %.17g vs %.17g)\n",
                     vms, inc.wordcount_sim_s, ref.wordcount_sim_s, inc.terasort_sim_s,
                     ref.terasort_sim_s);
        return 1;
      }
    }

    for (const ScaleResult* run : {&inc, have_ref ? &ref : nullptr}) {
      if (!run) continue;
      const char* mode = run->reference ? "reference" : "incremental";
      // Simulated seconds the two timed jobs advance per host second.
      const double jobs_ms = run->wordcount_ms + run->terasort_ms;
      const double sim_per_wall =
          jobs_ms > 0.0 ? (run->wordcount_sim_s + run->terasort_sim_s) / (jobs_ms / 1e3) : 0.0;
      std::printf("%6d %12s %10.1f %12.1f %12.1f %12.2f %12.2f %10.1f %12.0f %12.0f %12.1f\n",
                  run->vms, mode, run->boot_ms, run->wordcount_ms, run->terasort_ms,
                  run->wordcount_sim_s, run->terasort_sim_s, run->component_p95,
                  run->solve_work, run->solve_classes, sim_per_wall);
      results.row()
          .col("vms", run->vms)
          .col("mode", mode)
          .col("topology", net::to_string(topology))
          .col("racks", run->racks)
          .col("boot_ms", run->boot_ms)
          .col("upload_ms", run->upload_ms)
          .col("wordcount_ms", run->wordcount_ms)
          .col("terasort_ms", run->terasort_ms)
          .col("wordcount_sim_s", run->wordcount_sim_s)
          .col("terasort_sim_s", run->terasort_sim_s)
          .col("recomputes", run->recomputes)
          .col("solve_work", run->solve_work)
          .col("solve_classes", run->solve_classes)
          .col("component_p95", run->component_p95)
          .col("events_fired", run->events_fired)
          .col("sim_s_per_wall_s", sim_per_wall);
    }
    if (have_ref) {
      const double inc_total = inc.wordcount_ms + inc.terasort_ms;
      const double ref_total = ref.wordcount_ms + ref.terasort_ms;
      const double speedup = inc_total > 0.0 ? ref_total / inc_total : 0.0;
      const double wc_speedup =
          inc.wordcount_ms > 0.0 ? ref.wordcount_ms / inc.wordcount_ms : 0.0;
      const double tera_speedup =
          inc.terasort_ms > 0.0 ? ref.terasort_ms / inc.terasort_ms : 0.0;
      std::printf("%6d %12s %10s %12s %12s  jobs speedup: %.1fx (wc %.1fx, tera %.1fx)\n",
                  vms, "speedup", "", "", "", speedup, wc_speedup, tera_speedup);
      results.row()
          .col("vms", vms)
          .col("mode", "speedup")
          .col("topology", net::to_string(topology))
          .col("jobs_speedup", speedup)
          .col("wordcount_speedup", wc_speedup)
          .col("terasort_speedup", tera_speedup);
    }
  }

  // Snapshot of the largest incremental run for post-hoc inspection.
  results.attach_metrics_json(std::move(last_metrics));
  results.write();
  return 0;
}
