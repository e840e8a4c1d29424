// The two real-execution workloads, on LocalJobRunner.
//
//   local-wordcount      Wordcount over a 64 MiB generated corpus, once as
//                        the paper runs it (no combiner) and once with the
//                        combiner. Record-count bound: the data path.
//   ml-paper-clustering  the paper's clustering studies at their own sizes
//                        (Fig. 6: canopy, dirichlet, meanshift on synthetic
//                        control 600x60, 15 splits; Fig. 7: all six drivers
//                        on 1000 display samples, 2 splits), many rounds.
//                        Per-call fixed costs dominate.
//
// Traced iterations of local-wordcount wrap the JobSpec's mapper, combiner
// and reducer factories to time the stages from outside the runner; traced
// ml rounds record one span per driver call.

#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"
#include "mapreduce/local_runner.hpp"
#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

namespace perfbench {
namespace {

using namespace vhadoop;
using mapreduce::Context;
using mapreduce::KV;

// --- local-wordcount -------------------------------------------------------

/// Stage boundaries of one traced job, stamped by the wrapped user code.
/// Task objects run on pool threads, so every update takes the lock; the
/// per-record user-time tallies stay task-local until cleanup.
struct StageClock {
  static constexpr Clock::time_point kNever = Clock::time_point::max();
  static constexpr Clock::time_point kBefore = Clock::time_point::min();

  struct Stage {
    Clock::time_point first_created = kNever;
    Clock::time_point last_cleanup = kBefore;
    std::int64_t user_ns = 0;
    bool ran() const { return first_created != kNever; }
  };

  void created(Stage& s) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    s.first_created = std::min(s.first_created, now);
  }
  void cleaned_up(Stage& s, std::int64_t user_ns) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    s.last_cleanup = std::max(s.last_cleanup, now);
    s.user_ns += user_ns;
  }

  std::mutex mu;
  Stage map, combine, reduce;
};

class TimedMapper final : public mapreduce::Mapper {
 public:
  TimedMapper(std::unique_ptr<mapreduce::Mapper> inner, StageClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}
  void setup(Context& ctx) override { inner_->setup(ctx); }
  void map(std::string_view key, std::string_view value, Context& ctx) override {
    const Clock::time_point t0 = Clock::now();
    inner_->map(key, value, ctx);
    user_ns_ += ns_between(t0, Clock::now());
  }
  void cleanup(Context& ctx) override {
    inner_->cleanup(ctx);
    clock_.cleaned_up(clock_.map, user_ns_);
  }

 private:
  std::unique_ptr<mapreduce::Mapper> inner_;
  StageClock& clock_;
  std::int64_t user_ns_ = 0;
};

class TimedReducer final : public mapreduce::Reducer {
 public:
  TimedReducer(std::unique_ptr<mapreduce::Reducer> inner, StageClock& clock,
               StageClock::Stage& stage)
      : inner_(std::move(inner)), clock_(clock), stage_(stage) {}
  void setup(Context& ctx) override { inner_->setup(ctx); }
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Context& ctx) override {
    const Clock::time_point t0 = Clock::now();
    inner_->reduce(key, values, ctx);
    user_ns_ += ns_between(t0, Clock::now());
  }
  void cleanup(Context& ctx) override {
    inner_->cleanup(ctx);
    clock_.cleaned_up(stage_, user_ns_);
  }

 private:
  std::unique_ptr<mapreduce::Reducer> inner_;
  StageClock& clock_;
  StageClock::Stage& stage_;
  std::int64_t user_ns_ = 0;
};

/// `spec` with every factory wrapped to stamp `clock`.
mapreduce::JobSpec timed_spec(const mapreduce::JobSpec& spec, StageClock& clock) {
  mapreduce::JobSpec timed = spec;
  timed.mapper = [inner = spec.mapper, &clock] {
    clock.created(clock.map);
    return std::make_unique<TimedMapper>(inner(), clock);
  };
  timed.reducer = [inner = spec.reducer, &clock] {
    clock.created(clock.reduce);
    return std::make_unique<TimedReducer>(inner(), clock, clock.reduce);
  };
  if (spec.combiner) {
    timed.combiner = [inner = spec.combiner, &clock] {
      clock.created(clock.combine);
      return std::make_unique<TimedReducer>(inner(), clock, clock.combine);
    };
  }
  return timed;
}

/// Host ms per runner stage, summed over the jobs of one iteration, plus
/// the stage spans themselves. The stages tile each run() call: start (call
/// to first mapper), map, combine, shuffle (map end to first reducer, minus
/// combine), reduce, output (last reducer cleanup to return).
struct StageTimes {
  struct Span {
    const char* job;
    const char* stage;
    std::int64_t start_ns;  ///< from the start of the iteration's first job
    std::int64_t dur_ns;
  };

  double start_ms = 0, map_ms = 0, map_user_ms = 0, combine_ms = 0, shuffle_ms = 0;
  double reduce_ms = 0, reduce_user_ms = 0, output_ms = 0, run_ms = 0;
  std::vector<Span> spans;

  void add(const char* job, const StageClock& c, Clock::time_point origin,
           Clock::time_point called, Clock::time_point returned) {
    const auto span = [&](const char* stage, Clock::time_point from, Clock::time_point to) {
      spans.push_back({job, stage, ns_between(origin, from), ns_between(from, to)});
      return ns_to_ms(ns_between(from, to));
    };
    start_ms += span("start", called, c.map.first_created);
    map_ms += span("map", c.map.first_created, c.map.last_cleanup);
    map_user_ms += ns_to_ms(c.map.user_ns);
    const double combine =
        c.combine.ran() ? span("combine", c.combine.first_created, c.combine.last_cleanup) : 0.0;
    combine_ms += combine;
    shuffle_ms += span("shuffle", c.map.last_cleanup, c.reduce.first_created) - combine;
    reduce_ms += span("reduce", c.reduce.first_created, c.reduce.last_cleanup);
    reduce_user_ms += ns_to_ms(c.reduce.user_ns);
    output_ms += span("output", c.reduce.last_cleanup, returned);
    run_ms += ns_to_ms(ns_between(called, returned));
  }
};

struct TransparentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};
using Tally = std::unordered_map<std::string, std::int64_t, TransparentHash, std::equal_to<>>;

/// Word counts computed independently of the runner: split on space/tab.
Tally tally_words(const std::vector<KV>& lines) {
  Tally tally;
  for (const KV& line : lines) {
    const std::string_view v = line.value;
    std::size_t i = 0;
    while (i < v.size()) {
      while (i < v.size() && (v[i] == ' ' || v[i] == '\t')) ++i;
      std::size_t j = i;
      while (j < v.size() && v[j] != ' ' && v[j] != '\t') ++j;
      if (j > i) {
        const std::string_view word = v.substr(i, j - i);
        auto it = tally.find(word);
        if (it == tally.end()) it = tally.emplace(std::string(word), 0).first;
        ++it->second;
      }
      i = j;
    }
  }
  return tally;
}

bool matches_tally(const std::vector<KV>& output, const Tally& tally) {
  if (output.size() != tally.size()) return false;
  for (const KV& rec : output) {
    const auto it = tally.find(std::string_view(rec.key));
    if (it == tally.end() || it->second != mapreduce::decode_i64(rec.value)) return false;
  }
  return true;
}

void digest_job(Digest& d, const mapreduce::JobResult& r) {
  for (const KV& rec : r.output) {
    d.add(rec.key);
    d.add(rec.value);
  }
  for (const auto* profiles : {&r.map_profiles, &r.reduce_profiles}) {
    for (const mapreduce::TaskProfile& p : *profiles) {
      d.add(p.input_bytes);
      d.add_u64(static_cast<std::uint64_t>(p.input_records));
      d.add(p.output_bytes);
      d.add_u64(static_cast<std::uint64_t>(p.output_records));
      d.add(p.cpu_seconds);
    }
  }
  d.add(r.total_shuffle_bytes);
  for (const std::int64_t v : {r.stats.map_emit_records, r.stats.map_emit_bytes,
                               r.stats.shuffle_records, r.stats.sort_comparisons,
                               r.stats.merge_comparisons, r.stats.arena_chunks}) {
    d.add_u64(static_cast<std::uint64_t>(v));
  }
}

class LocalWordcount final : public Workload {
 public:
  LocalWordcount(const Options& opts, Outcome& outcome)
      : opts_(opts),
        outcome_(outcome),
        corpus_bytes_((opts.tiny ? 1.0 : 64.0) * 1024 * 1024),
        splits_(16),
        reduces_(4) {}

  int min_iterations(bool traced) const override { return traced ? 1 : 3; }

  Iteration iterate(bool traced) override {
    Iteration it;
    const Stopwatch setup;
    const std::vector<KV> lines =
        workloads::TextCorpus(20000, 1.0, opts_.seed).generate(corpus_bytes_);
    const mapreduce::LocalJobRunner runner;
    runner.run(workloads::wordcount_job(reduces_, false), lines, splits_);
    it.set_setup(setup);

    if (tally_.empty()) tally_ = tally_words(lines);

    const mapreduce::JobSpec plain_spec = workloads::wordcount_job(reduces_, false);
    const mapreduce::JobSpec combined_spec = workloads::wordcount_job(reduces_, true);
    mapreduce::JobResult plain, combined;
    StageTimes stages;
    const Stopwatch run;
    const Clock::time_point t = Clock::now();
    if (!traced) {
      plain = runner.run(plain_spec, lines, splits_);
      combined = runner.run(combined_spec, lines, splits_);
    } else {
      for (auto [job, spec, result] : {std::tuple{"plain", &plain_spec, &plain},
                                       {"combined", &combined_spec, &combined}}) {
        StageClock clock;
        const mapreduce::JobSpec timed = timed_spec(*spec, clock);
        const Clock::time_point called = Clock::now();
        *result = runner.run(timed, lines, splits_);
        stages.add(job, clock, t, called, Clock::now());
      }
    }
    it.set_run(run);

    if (opts_.corrupt && !plain.output.empty()) {
      KV& first = plain.output.front();
      first.value = mapreduce::encode_i64(mapreduce::decode_i64(first.value) + 1);
    }
    outcome_.operations(2, 0);
    outcome_.check(matches_tally(plain.output, tally_),
                   "local-wordcount: output differs from the tally");
    outcome_.check(plain.output == combined.output,
                   "local-wordcount: combiner changed the output");

    Digest d;
    digest_job(d, plain);
    digest_job(d, combined);
    it.fingerprint = d.hex();
    map_input_records_ = 0;
    for (const auto* r : {&plain, &combined}) {
      for (const auto& p : r->map_profiles) {
        map_input_records_ += static_cast<double>(p.input_records);
      }
    }
    if (traced) {
      stage_samples_.push_back(stages);
      plain_stats_ = plain.stats;
      combined_stats_ = combined.stats;
    } else {
      records_per_s_.push_back(map_input_records_ / it.run_wall_s);
    }
    return it;
  }

  void end_to_end(MetricList& out) const override {
    out.set("records_per_s", median(records_per_s_), "1/s");
  }

  void layers(MetricList& out) const override {
    if (stage_samples_.empty()) return;
    // The traced iteration with the median runner time.
    std::vector<StageTimes> order = stage_samples_;
    std::sort(order.begin(), order.end(),
              [](const StageTimes& a, const StageTimes& b) { return a.run_ms < b.run_ms; });
    const StageTimes& s = order[(order.size() - 1) / 2];
    const auto shuffled = static_cast<double>(plain_stats_.shuffle_records +
                                              combined_stats_.shuffle_records);
    out.set("runner.run_ms", s.run_ms, "ms");
    out.set("runner.start_ms", s.start_ms, "ms");
    out.set("runner.map_ms", s.map_ms, "ms");
    out.set("runner.map_user_ms", s.map_user_ms, "ms");
    out.set("runner.combine_ms", s.combine_ms, "ms");
    out.set("runner.shuffle_ms", s.shuffle_ms, "ms");
    out.set("runner.reduce_ms", s.reduce_ms, "ms");
    out.set("runner.reduce_user_ms", s.reduce_user_ms, "ms");
    out.set("runner.output_ms", s.output_ms, "ms");
    out.set("runner.shuffle_ns_per_record", shuffled > 0 ? s.shuffle_ms * 1e6 / shuffled : 0.0,
            "ns");
    out.set("runner.map_input_records", map_input_records_, "count");
    const auto both = [&](std::int64_t mapreduce::DataPathStats::*field) {
      return static_cast<double>(plain_stats_.*field + combined_stats_.*field);
    };
    out.set("runner.map_emit_records", both(&mapreduce::DataPathStats::map_emit_records), "count");
    out.set("runner.map_emit_bytes", both(&mapreduce::DataPathStats::map_emit_bytes), "B");
    out.set("runner.shuffle_records", shuffled, "count");
    out.set("runner.shuffle_records_combined",
            static_cast<double>(combined_stats_.shuffle_records), "count");
    out.set("runner.sort_comparisons", both(&mapreduce::DataPathStats::sort_comparisons),
            "count");
    out.set("runner.merge_comparisons", both(&mapreduce::DataPathStats::merge_comparisons),
            "count");
    out.set("runner.arena_chunks", both(&mapreduce::DataPathStats::arena_chunks), "count");
  }

  std::int64_t spans_per_iteration() const override {
    if (stage_samples_.empty()) return 0;
    return static_cast<std::int64_t>(stage_samples_.back().spans.size());
  }

  std::string write_spans(const std::string& path) const override {
    if (stage_samples_.empty()) return {};
    std::ofstream out(path);
    out << "job,stage,start_ns,dur_ns\n";
    for (const StageTimes::Span& s : stage_samples_.back().spans) {
      out << s.job << ',' << s.stage << ',' << s.start_ns << ',' << s.dur_ns << '\n';
    }
    return out ? path : std::string();
  }

 private:
  const Options& opts_;
  Outcome& outcome_;
  double corpus_bytes_;
  int splits_;
  int reduces_;
  Tally tally_;
  double map_input_records_ = 0.0;
  std::vector<double> records_per_s_;
  std::vector<StageTimes> stage_samples_;
  mapreduce::DataPathStats plain_stats_, combined_stats_;
};

// --- ml-paper-clustering ---------------------------------------------------

/// What one driver call contributes to a round.
struct CallResult {
  ml::ClusteringRun run;
  std::size_t assignment_bound = 0;  ///< assignments must lie in [-1, bound)
};

struct DriverCall {
  const char* study;
  const char* algorithm;
  const ml::Dataset* data;
  std::function<CallResult()> call;
};

class MlClustering final : public Workload {
 public:
  static constexpr const char* kAlgorithms[] = {"canopy",    "kmeans",    "fuzzy_kmeans",
                                                "meanshift", "dirichlet", "minhash"};

  MlClustering(const Options& opts, Outcome& outcome) : opts_(opts), outcome_(outcome) {}

  int min_iterations(bool) const override {
    // At least 1000 driver calls in a full-size run.
    return opts_.tiny ? 2 : (1000 + kCallsPerRound - 1) / kCallsPerRound;
  }

  Iteration iterate(bool traced) override {
    Iteration it;
    const Stopwatch setup;
    const ml::Dataset control = ml::synthetic_control(100, 60, opts_.seed);
    const ml::Dataset display = ml::display_clustering_samples(1000, opts_.seed);
    it.set_setup(setup);

    const std::vector<DriverCall> calls = round_calls(control, display);
    Digest d;
    RoundCounts counts;
    std::vector<Span> spans;
    const Stopwatch run;
    const Clock::time_point round_start = Clock::now();
    for (const DriverCall& c : calls) {
      const Clock::time_point start = Clock::now();
      CallResult r = c.call();
      const Clock::time_point end = Clock::now();
      if (traced) {
        spans.push_back({c.study, c.algorithm, ns_between(round_start, start),
                         ns_between(start, end)});
      } else {
        call_ms_.push_back(ns_to_ms(ns_between(start, end)));
      }
      check_call(c, r);
      counts.add(r.run);
      d.add(c.algorithm);
      d.add_u64(static_cast<std::uint64_t>(r.run.iterations));
      for (const ml::Vec& center : r.run.centers) {
        for (const double x : center) d.add(x);
      }
      for (const int a : r.run.assignments) d.add_u64(static_cast<std::uint64_t>(a));
    }
    it.set_run(run);
    it.fingerprint = d.hex();
    counts_ = counts;
    if (traced) {
      for (const Span& s : spans) traced_ms_[s.algorithm].push_back(ns_to_ms(s.dur_ns));
      last_spans_ = std::move(spans);
    } else {
      records_per_s_.push_back(counts.map_input_records / it.run_wall_s);
    }
    return it;
  }

  void end_to_end(MetricList& out) const override {
    out.set("records_per_s", median(records_per_s_), "1/s");
    out.set("call_p50_ms", percentile(call_ms_, 0.50), "ms");
    out.set("call_p99_ms", percentile(call_ms_, 0.99), "ms");
    out.set("calls", static_cast<double>(call_ms_.size()), "count");
  }

  void layers(MetricList& out) const override {
    for (const char* algorithm : kAlgorithms) {
      const auto it = traced_ms_.find(algorithm);
      out.set(std::string("ml.") + algorithm + "_p50_ms",
              it == traced_ms_.end() ? 0.0 : percentile(it->second, 0.5), "ms");
    }
    out.set("ml.calls_per_round", kCallsPerRound, "count");
    out.set("ml.jobs", counts_.jobs, "count");
    out.set("ml.iterations", counts_.iterations, "count");
    out.set("ml.map_input_records", counts_.map_input_records, "count");
    out.set("ml.shuffle_records", counts_.shuffle_records, "count");
  }

  std::int64_t spans_per_iteration() const override {
    return static_cast<std::int64_t>(last_spans_.size());
  }

  std::string write_spans(const std::string& path) const override {
    if (last_spans_.empty()) return {};
    std::ofstream out(path);
    out << "study,algorithm,start_ns,dur_ns\n";
    for (const Span& s : last_spans_) {
      out << s.study << ',' << s.algorithm << ',' << s.start_ns << ',' << s.dur_ns << '\n';
    }
    return out ? path : std::string();
  }

 private:
  static constexpr int kCallsPerRound = 9;

  struct Span {
    const char* study;
    const char* algorithm;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  /// Per-round totals over every job the drivers ran (deterministic).
  struct RoundCounts {
    double jobs = 0, iterations = 0, map_input_records = 0, shuffle_records = 0;
    void add(const ml::ClusteringRun& run) {
      jobs += static_cast<double>(run.jobs.size());
      iterations += run.iterations;
      for (const mapreduce::JobResult& job : run.jobs) {
        for (const auto& p : job.map_profiles) {
          map_input_records += static_cast<double>(p.input_records);
        }
        shuffle_records += static_cast<double>(job.stats.shuffle_records);
      }
    }
  };

  /// The paper's two studies: Fig. 6 (synthetic control, 15 splits, three
  /// drivers) and Fig. 7 (display samples, 2 splits, six drivers), with the
  /// parameters of bench/fig6_* and bench/fig7_*.
  static std::vector<DriverCall> round_calls(const ml::Dataset& control,
                                             const ml::Dataset& display) {
    const ml::ClusteringConfig fig6{.num_splits = 15, .num_reduces = 1, .max_iterations = 5};
    const ml::ClusteringConfig fig7{.num_splits = 2, .num_reduces = 1, .max_iterations = 5};
    const auto plain = [](ml::ClusteringRun run) {
      const std::size_t bound = run.centers.size();
      return CallResult{std::move(run), bound};
    };
    const auto dirichlet = [](ml::DirichletRun run) {
      const std::size_t bound = run.models.size();
      return CallResult{static_cast<ml::ClusteringRun>(std::move(run)), bound};
    };
    const ml::Dataset* c = &control;
    const ml::Dataset* d = &display;
    return {
        {"fig6", "canopy", c,
         [=] { return plain(ml::canopy_cluster(*c, {.t1 = 80.0, .t2 = 55.0, .base = fig6})); }},
        {"fig6", "dirichlet", c,
         [=] {
           return dirichlet(ml::dirichlet_cluster(*c, {.k = 10, .alpha = 1.0, .base = fig6}));
         }},
        {"fig6", "meanshift", c,
         [=] { return plain(ml::meanshift_cluster(*c, {.t1 = 60.0, .t2 = 30.0, .base = fig6})); }},
        {"fig7", "canopy", d,
         [=] { return plain(ml::canopy_cluster(*d, {.t1 = 3.0, .t2 = 1.5, .base = fig7})); }},
        {"fig7", "kmeans", d,
         [=] { return plain(ml::kmeans_cluster(*d, {.k = 3, .base = fig7})); }},
        {"fig7", "fuzzy_kmeans", d,
         [=] { return plain(ml::fuzzy_kmeans_cluster(*d, {.k = 3, .m = 2.0, .base = fig7})); }},
        {"fig7", "meanshift", d,
         [=] { return plain(ml::meanshift_cluster(*d, {.t1 = 2.0, .t2 = 0.8, .base = fig7})); }},
        {"fig7", "dirichlet", d,
         [=] {
           return dirichlet(ml::dirichlet_cluster(*d, {.k = 10, .alpha = 1.0, .base = fig7}));
         }},
        {"fig7", "minhash", d, [=] {
           return plain(ml::minhash_cluster(*d, {.num_hash_functions = 8, .keygroups = 2,
                                                 .min_cluster_size = 5, .bucket_width = 2.0,
                                                 .base = fig7}));
         }},
    };
  }

  void check_call(const DriverCall& c, CallResult& r) {
    const std::string where = std::string("ml-paper-clustering: ") + c.study + " " + c.algorithm;
    if (opts_.corrupt && !r.run.assignments.empty()) {
      r.run.assignments.front() = static_cast<int>(r.assignment_bound);
    }
    outcome_.operations(1, 0);
    outcome_.check(r.run.assignments.size() == c.data->size(),
                   where + ": one assignment per point expected");
    const auto bound = static_cast<int>(r.assignment_bound);
    outcome_.check(std::all_of(r.run.assignments.begin(), r.run.assignments.end(),
                               [bound](int a) { return a >= -1 && a < bound; }),
                   where + ": assignment out of range");
    if (std::string_view(c.algorithm) == "kmeans" && r.run.iteration_centers.size() > 1) {
      const double first = ml::total_cost(*c.data, r.run.iteration_centers[1]);
      outcome_.check(ml::total_cost(*c.data, r.run.centers) <= first,
                     where + ": final cost above the first iteration's");
    }
  }

  const Options& opts_;
  Outcome& outcome_;
  std::vector<double> call_ms_;
  std::vector<double> records_per_s_;
  std::map<std::string, std::vector<double>> traced_ms_;
  std::vector<Span> last_spans_;
  RoundCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_local_wordcount(const Options& opts, Outcome& outcome) {
  return std::make_unique<LocalWordcount>(opts, outcome);
}

std::unique_ptr<Workload> make_ml_clustering(const Options& opts, Outcome& outcome) {
  return std::make_unique<MlClustering>(opts, outcome);
}

}  // namespace perfbench
