// vlint: allow-file(no-exact-float-compare) audited PR 8: byte-identity equivalence oracle; optimized and reference runners must match exactly
// ML-scaling sweep for the zero-copy KV data path: the six paper clustering
// algorithms (k-means, fuzzy k-means, canopy, Dirichlet, mean-shift, MinHash)
// run over synthetic datasets of growing (points x dims), once on the
// arena-backed optimized runner and once on the reference oracle
// (tests/testutil/reference_runner.hpp, the original std::vector<KV> path),
// which each driver receives through ClusteringConfig::run_job.
//
// Both paths execute the *same* logical job (DESIGN.md §11), so outputs,
// task profiles, shuffle accounting and the mode-independent record/byte
// counters must agree bit-for-bit — the sweep re-checks that here for every
// (algorithm, seed) and exits 1 on any divergence. Only wall-clock differs.
// Two speedup acceptance gates (DESIGN.md §15, "win everywhere"):
//  - the largest configuration (minhash-10000000x2, ~20M shuffled records)
//    must hold the data-path rewrite's ≥2× win at scale;
//  - *every* configuration, tiny jobs included, must be at least as fast as
//    the reference path (speedup >= 1.0) — the sweep exits 1 otherwise.
// Wall times on configurations marked wall_reps > 1 are best-of-N to tame
// single-core scheduler noise; every repetition is a full driver run. A
// configuration that still measures a loss is granted extra best-of rounds
// before the gate counts it: per-mode minima only go down, so a path that
// is genuinely no slower eventually shows opt <= ref, while a real
// regression keeps losing every round.
//
// Prints one row per (configuration, seed) and writes BENCH_ml_scaling.json
// whose deterministic counters (records/bytes moved, sort/merge comparisons,
// arena chunks) are gated by tools/bench_check; wall-clock columns are
// recorded ungated. Flags:
//   --quick         reduced sweep for the local ctest fixture (drops the
//                   large full-sweep-only configurations; CI runs the full
//                   sweep and re-checks with --require-all)
//   --no-wall-gate  record speedups but never fail on them (the Debug/
//                   sanitizer ctest fixture uses this: wall ratios are only
//                   meaningful on optimized builds)
//   --seeds=1,7     dataset seeds for the cross-mode equivalence sweep
//                   (comma-separated unsigned numbers; anything else exits 2)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"
#include "testutil/reference_runner.hpp"

using namespace vhadoop;

namespace {

// vlint: allow(no-wall-clock) audited PR 8: host-clock stopwatch around the drivers; never feeds job results
using WallClock = std::chrono::steady_clock;

double elapsed_ms(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0).count();
}

/// One swept configuration: a seeded dataset generator plus a driver
/// closure. The dataset is built once per seed *outside* the stopwatch and
/// shared by both modes — only the driver (jobs + model assembly) is timed.
struct SweepConfig {
  std::string name;       ///< row id, e.g. "kmeans-600x60"
  std::string algorithm;
  int points = 0;
  int dims = 0;
  bool quick = false;     ///< part of the reduced --quick sweep
  int wall_reps = 1;      ///< best-of-N wall timing (outputs checked once)
  std::function<ml::Dataset(std::uint64_t seed)> data;
  /// Runs the driver with `run_job` as its ClusteringConfig::run_job.
  std::function<ml::ClusteringRun(const ml::Dataset&, const mapreduce::RunJob& run_job)> run;
};

/// Run a driver on its default LocalJobRunner or, for `reference`, on the
/// oracle at the same (default) thread count.
ml::ClusteringRun run_mode(const SweepConfig& c, const ml::Dataset& data, bool reference) {
  if (!reference) return c.run(data, {});
  const testutil::ReferenceRunner oracle;
  return c.run(data, [&oracle](const mapreduce::JobSpec& spec,
                               std::span<const mapreduce::KV> input,
                               int num_splits) { return oracle.run(spec, input, num_splits); });
}

/// One round of best-of interleaved repetitions, folding each mode's
/// fastest sample into the running minima. Millisecond-scale drivers can't
/// be timed to the ~1% the wall gate needs from a single run — batch
/// enough runs per stopwatch sample to clear the floor_ms floor. The same
/// batch factor applies to both modes, so the speedup ratio is unaffected;
/// per-run times divide the sample. Which mode is timed first alternates
/// per rep, so any fixed cost of switching modes (cache/branch state from
/// the other path) charges both sides evenly instead of biasing whichever
/// mode always ran second.
void best_of_reps(const SweepConfig& c, const ml::Dataset& data, int reps, double floor_ms,
                  double& opt_ms, double& ref_ms) {
  const double slower = opt_ms > ref_ms ? opt_ms : ref_ms;
  int inner = 1;
  if (slower < floor_ms) {
    inner = static_cast<int>(floor_ms / (slower > 0.05 ? slower : 0.05)) + 1;
    if (inner > 32) inner = 32;
  }
  for (int rep = 0; rep < reps; ++rep) {
    const bool ref_first = (rep % 2) != 0;
    for (int half = 0; half < 2; ++half) {
      const bool reference = (half == 0) == ref_first;
      auto t0 = WallClock::now();
      for (int i = 0; i < inner; ++i) run_mode(c, data, reference);
      const double ms = elapsed_ms(t0) / inner;
      double& best = reference ? ref_ms : opt_ms;
      if (ms < best) best = ms;
    }
  }
}

/// Time both modes with their repetitions interleaved (opt, ref, opt, ref,
/// …) rather than in per-mode blocks: host-speed drift across the
/// measurement window then degrades adjacent reps of *both* modes, so
/// best-of-N speedup ratios stay honest on a noisy machine — with per-mode
/// blocks a slow spell during one block flips the every-config wall gate
/// on configurations where the data path is a sliver of the run. The first
/// run of each mode is kept for the equivalence check; repetitions are
/// deterministic re-runs that only differ in scheduler noise.
void time_both(const SweepConfig& c, const ml::Dataset& data, ml::ClusteringRun& opt,
               ml::ClusteringRun& ref, double& opt_ms, double& ref_ms) {
  auto t0 = WallClock::now();
  opt = run_mode(c, data, /*reference=*/false);
  opt_ms = elapsed_ms(t0);
  t0 = WallClock::now();
  ref = run_mode(c, data, /*reference=*/true);
  ref_ms = elapsed_ms(t0);
  if (c.wall_reps > 1) best_of_reps(c, data, c.wall_reps - 1, /*floor_ms=*/20.0, opt_ms, ref_ms);
}

bool check(bool ok, const char* where, const std::string& name, std::size_t job) {
  if (!ok) {
    std::fprintf(stderr, "ml_scaling: %s diverged between modes (%s, job %zu)\n", where,
                 name.c_str(), job);
  }
  return ok;
}

bool profiles_equal(const std::vector<mapreduce::TaskProfile>& a,
                    const std::vector<mapreduce::TaskProfile>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].input_bytes != b[i].input_bytes || a[i].input_records != b[i].input_records ||
        a[i].output_bytes != b[i].output_bytes || a[i].output_records != b[i].output_records ||
        a[i].cpu_seconds != b[i].cpu_seconds) {
      return false;
    }
  }
  return true;
}

/// Byte-identity across modes: outputs, profiles, shuffle accounting and the
/// mode-independent data-path counters must match exactly.
bool jobs_equal(const ml::ClusteringRun& opt, const ml::ClusteringRun& ref,
                const std::string& name) {
  if (!check(opt.jobs.size() == ref.jobs.size(), "job count", name, 0)) return false;
  for (std::size_t j = 0; j < opt.jobs.size(); ++j) {
    const mapreduce::JobResult& o = opt.jobs[j];
    const mapreduce::JobResult& r = ref.jobs[j];
    if (!check(o.output.size() == r.output.size(), "output size", name, j)) return false;
    for (std::size_t i = 0; i < o.output.size(); ++i) {
      if (!check(o.output[i].key == r.output[i].key && o.output[i].value == r.output[i].value,
                 "output record", name, j)) {
        return false;
      }
    }
    if (!check(profiles_equal(o.map_profiles, r.map_profiles), "map profiles", name, j) ||
        !check(profiles_equal(o.reduce_profiles, r.reduce_profiles), "reduce profiles", name,
               j) ||
        !check(o.shuffle_matrix == r.shuffle_matrix, "shuffle matrix", name, j) ||
        !check(o.total_shuffle_bytes == r.total_shuffle_bytes, "shuffle bytes", name, j) ||
        !check(o.stats.map_emit_records == r.stats.map_emit_records &&
                   o.stats.map_emit_bytes == r.stats.map_emit_bytes &&
                   o.stats.shuffle_records == r.stats.shuffle_records,
               "data-path stats", name, j)) {
      return false;
    }
  }
  if (!check(opt.iterations == ref.iterations, "iterations", name, 0) ||
      !check(opt.centers == ref.centers, "centers", name, 0) ||
      !check(opt.assignments == ref.assignments, "assignments", name, 0)) {
    return false;
  }
  return true;
}

/// Sum the deterministic counters over every job of a run.
struct Counters {
  std::int64_t emit_records = 0;
  std::int64_t emit_bytes = 0;
  std::int64_t shuffle_records = 0;
  std::int64_t sort_comparisons = 0;
  std::int64_t merge_comparisons = 0;
  std::int64_t arena_chunks = 0;
};

Counters aggregate(const ml::ClusteringRun& run) {
  Counters c;
  for (const mapreduce::JobResult& j : run.jobs) {
    c.emit_records += j.stats.map_emit_records;
    c.emit_bytes += j.stats.map_emit_bytes;
    c.shuffle_records += j.stats.shuffle_records;
    c.sort_comparisons += j.stats.sort_comparisons;
    c.merge_comparisons += j.stats.merge_comparisons;
    c.arena_chunks += j.stats.arena_chunks;
  }
  return c;
}

std::vector<SweepConfig> build_sweep() {
  std::vector<SweepConfig> sweep;
  // Small configurations finish in milliseconds and are compute-dominated,
  // so their true speedup sits barely above 1.0 — resolving that against
  // the every-config wall gate needs a deep best-of-N (the min of each
  // mode's interleaved samples converges to the true floor). Each rep is
  // ~tens of ms, so 21 reps stay cheap; big configurations fall back to
  // fewer, longer reps where the ratio is far from the gate.
  auto add = [&sweep](std::string name, std::string algorithm, int points, int dims,
                      bool quick, std::function<ml::Dataset(std::uint64_t)> data,
                      decltype(SweepConfig::run) run) {
    sweep.push_back({std::move(name), std::move(algorithm), points, dims, quick,
                     /*wall_reps=*/quick ? 21 : 1, std::move(data), std::move(run)});
  };
  auto control = [](int per_class) {
    return [per_class](std::uint64_t seed) { return ml::synthetic_control(per_class, 60, seed); };
  };
  auto display = [](int total) {
    return [total](std::uint64_t seed) { return ml::display_clustering_samples(total, seed); };
  };

  auto kmeans = [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
    ml::KMeansConfig c;
    c.base.run_job = run_job;
    c.k = 6;
    c.base.num_splits = 8;
    c.base.num_reduces = 2;
    return ml::kmeans_cluster(data, c);
  };
  add("kmeans-600x60", "kmeans", 600, 60, true, control(100), kmeans);
  add("kmeans-3000x60", "kmeans", 3000, 60, false, control(500), kmeans);
  sweep.back().wall_reps = 15;

  add("fuzzy-600x60", "fuzzy_kmeans", 600, 60, true, control(100),
      [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
        ml::FuzzyKMeansConfig c;
        c.base.run_job = run_job;
        c.k = 6;
        c.base.num_splits = 8;
        c.base.num_reduces = 2;
        c.base.max_iterations = 5;
        return ml::fuzzy_kmeans_cluster(data, c);
      });

  auto canopy = [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
    ml::CanopyConfig c;
    c.base.run_job = run_job;
    c.base.num_splits = 8;
    return ml::canopy_cluster(data, c);
  };
  add("canopy-4000x2", "canopy", 4000, 2, true, display(4000), canopy);
  add("canopy-20000x2", "canopy", 20000, 2, false, display(20000), canopy);
  sweep.back().wall_reps = 15;

  add("dirichlet-300x60", "dirichlet", 300, 60, true, control(50),
      [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
        ml::DirichletConfig c;
        c.base.run_job = run_job;
        c.k = 10;
        c.base.num_splits = 8;
        c.base.max_iterations = 5;
        return ml::dirichlet_cluster(data, c);
      });

  add("meanshift-1500x2", "meanshift", 1500, 2, true, display(1500),
      [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
        ml::MeanShiftConfig c;
        c.base.run_job = run_job;
        c.base.num_splits = 8;
        c.base.max_iterations = 5;
        return ml::meanshift_cluster(data, c);
      });

  // Two short hash bands (keygroups=1) keep the per-point hashing cost —
  // identical in both modes — small relative to the records shuffled, so
  // the sweep measures the data path rather than the hash bank.
  auto minhash = [](const ml::Dataset& data, const mapreduce::RunJob& run_job) {
    ml::MinHashConfig c;
    c.base.run_job = run_job;
    c.num_hash_functions = 2;
    c.keygroups = 1;
    c.base.num_splits = 8;
    c.base.num_reduces = 4;
    return ml::minhash_cluster(data, c);
  };
  add("minhash-100000x2", "minhash", 100000, 2, true, display(100000), minhash);
  // Far from the gate (>2x) and ~70 ms per run — a shallow best-of-N is
  // plenty and keeps the quick fixture fast.
  sweep.back().wall_reps = 5;
  // ~2M shuffled records of short string keys — the record-bound regime the
  // arena/merge rewrite targets.
  add("minhash-1000000x2", "minhash", 1000000, 2, false, display(1000000), minhash);
  sweep.back().wall_reps = 3;
  // The at-scale acceptance configuration (~20M shuffled records): spill
  // sorts and reduce merges here are far past every parallel threshold, so
  // this row exercises the run-split sorts and prefix-range merges end to
  // end while the quick-tier rows cover millisecond jobs.
  add("minhash-10000000x2", "minhash", 10000000, 2, false, display(10000000), minhash);

  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool wall_gate = true;
  std::vector<std::uint64_t> seeds = {1, 7};
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-wall-gate") == 0) {
      wall_gate = false;
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      ok = bench::parse_list_at_least<std::uint64_t>(argv[i] + 8, 0, seeds);
      if (!ok) {
        std::fprintf(stderr,
                     "ml_scaling: --seeds needs comma-separated unsigned numbers, got '%s'\n",
                     argv[i] + 8);
      }
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "usage: %s [--quick] [--no-wall-gate] [--seeds=1,7,...]\n", argv[0]);
      return 2;
    }
  }

  bench::BenchResults results("ml_scaling");
  std::vector<std::string> wall_losses;  // configs where the optimized path lost
  std::printf("%-18s %5s %9s %9s %12s %12s %12s %7s %9s %9s %8s\n", "config", "seed", "iters",
              "emit_rec", "shuffle_rec", "sort_cmp", "merge_cmp", "chunks", "opt_ms",
              "ref_ms", "speedup");

  for (const SweepConfig& c : build_sweep()) {
    if (quick && !c.quick) continue;
    for (std::uint64_t seed : seeds) {
      const ml::Dataset data = c.data(seed);

      ml::ClusteringRun opt, ref;
      double opt_ms = 0.0, ref_ms = 0.0;
      time_both(c, data, opt, ref, opt_ms, ref_ms);

      if (!jobs_equal(opt, ref, c.name)) return 1;

      const Counters agg = aggregate(opt);
      const Counters ref_agg = aggregate(ref);
      // The oracle fills only the mode-independent counters; nonzero
      // comparison/arena counts there mean the paths were swapped.
      if (ref_agg.sort_comparisons != 0 || ref_agg.arena_chunks != 0) {
        std::fprintf(stderr, "ml_scaling: reference run reported optimized-path counters (%s)\n",
                     c.name.c_str());
        return 1;
      }
      // Compute-dominated rows have a true speedup barely above 1.0 —
      // inside measurement noise even with batched best-of reps. Re-examine
      // a measured loss with extra best-of rounds at escalating sample
      // lengths before the gate counts it; the minima are monotone, so the
      // rounds can only sharpen both floors, never manufacture a win that
      // isn't there.
      for (int retry = 0; wall_gate && c.wall_reps > 1 && opt_ms > ref_ms && retry < 6; ++retry) {
        best_of_reps(c, data, c.wall_reps, /*floor_ms=*/20.0 * (retry + 1), opt_ms, ref_ms);
      }
      const double speedup = opt_ms > 0.0 ? ref_ms / opt_ms : 0.0;
      if (speedup < 1.0) {
        wall_losses.push_back(c.name + " seed " + std::to_string(seed) + ": " +
                              std::to_string(speedup) + "x");
      }

      std::printf("%-18s %5llu %9d %9lld %12lld %12lld %12lld %7lld %9.1f %9.1f %7.2fx\n",
                  c.name.c_str(), static_cast<unsigned long long>(seed), opt.iterations,
                  static_cast<long long>(agg.emit_records),
                  static_cast<long long>(agg.shuffle_records),
                  static_cast<long long>(agg.sort_comparisons),
                  static_cast<long long>(agg.merge_comparisons),
                  static_cast<long long>(agg.arena_chunks), opt_ms, ref_ms, speedup);
      results.row()
          .col("config", c.name)
          .col("algorithm", c.algorithm)
          .col("seed", static_cast<double>(seed))
          .col("points", c.points)
          .col("dims", c.dims)
          .col("iterations", opt.iterations)
          .col("map_emit_records", static_cast<double>(agg.emit_records))
          .col("map_emit_bytes", static_cast<double>(agg.emit_bytes))
          .col("shuffle_records", static_cast<double>(agg.shuffle_records))
          .col("sort_comparisons", static_cast<double>(agg.sort_comparisons))
          .col("merge_comparisons", static_cast<double>(agg.merge_comparisons))
          .col("arena_chunks", static_cast<double>(agg.arena_chunks))
          .col("opt_ms", opt_ms)
          .col("ref_ms", ref_ms)
          .col("speedup", speedup);
    }
  }

  results.write();
  if (!wall_losses.empty()) {
    for (const std::string& loss : wall_losses) {
      std::fprintf(stderr, "ml_scaling: optimized path slower than reference: %s\n", loss.c_str());
    }
    if (wall_gate) {
      std::fprintf(stderr,
                   "ml_scaling: wall gate failed on %zu configuration(s) — the optimized path "
                   "must win everywhere (pass --no-wall-gate on unoptimized builds)\n",
                   wall_losses.size());
      return 1;
    }
  }
  return 0;
}
