// Microbenchmarks (google-benchmark) for the platform's hot kernels: the
// discrete-event queue (fresh and in steady state), the fluid model's
// start/finish churn and max-min solver, the logical MapReduce
// runtime and its spill sort, and the clustering arithmetic. Besides the
// usual console table (user counters included),
// the run is captured into BENCH_micro_engine.json (one row per benchmark)
// so CI can archive it alongside the macro benches.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/kv_batch.hpp"
#include "mapreduce/local_runner.hpp"
#include "ml/kmeans.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

using namespace vhadoop;

namespace {

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

/// A fixed population of self-re-arming timers on one long-lived engine.
struct TimerRing {
  explicit TimerRing(std::size_t n) : timers(n) {
    for (std::size_t i = 0; i < n; ++i) arm(i);
  }
  /// Deterministic delays in [1, 2) seconds.
  double delay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return 1.0 + static_cast<double>(lcg >> 11) * 0x1p-53;
  }
  void arm(std::size_t i) {
    timers[i] = engine.schedule_in(delay(), [this, i] { arm(i); });
  }

  sim::Engine engine;
  std::vector<sim::Engine::EventId> timers;
  std::uint64_t lcg = 4711;
};

/// Engine dispatch in steady state, as the fluid model drives it: each
/// iteration cancels and re-arms one timer (a rate change moved its
/// component's earliest finish) and fires the earliest one, which re-arms
/// itself. One fired event per iteration, so CPU ns per iteration (and
/// 1e9 / items_per_second) is ns per fired event, schedules and cancels
/// included.
void BM_EngineSteadyState(benchmark::State& state) {
  TimerRing ring(static_cast<std::size_t>(state.range(0)));
  std::size_t next = 0;
  for (auto _ : state) {
    ring.engine.cancel(ring.timers[next]);
    ring.arm(next);
    next = next + 1 == ring.timers.size() ? 0 : next + 1;
    ring.engine.step();
  }
  benchmark::DoNotOptimize(ring.engine.processed());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSteadyState)->Arg(32)->Arg(1024);

/// Fluid start -> finish churn in steady state: two long activities keep a
/// shared class alive on one link; each iteration starts a third with the
/// same key (building its ActivitySpec included) and steps the engine until
/// it finishes. Items are fired engine events: 1e9 / items_per_second is
/// ns per event.
void BM_FluidStartFinish(benchmark::State& state) {
  sim::Engine engine;
  sim::FluidModel model(engine, /*reference=*/false);
  const auto link = model.add_resource("link", 100.0);
  model.start({.work = 1e15, .resources = {link}});
  model.start({.work = 1e15, .resources = {link}});
  int finished = 0;
  const std::uint64_t events_before = engine.processed();
  for (auto _ : state) {
    const int before = finished;
    model.start({.work = 10.0, .resources = {link}, .on_complete = [&finished] { ++finished; }});
    while (finished == before && engine.step()) {
    }
  }
  benchmark::DoNotOptimize(finished);
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.processed() - events_before));
}
BENCHMARK(BM_FluidStartFinish);

void BM_FluidRecompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::FluidModel model(engine);
    std::vector<sim::FluidModel::ResourceId> res;
    for (int r = 0; r < 8; ++r) res.push_back(model.add_resource("r", 100.0));
    for (int a = 0; a < n; ++a) {
      model.start({.work = 1000.0,
                   .weight = 1.0 + (a % 3),
                   .resources = {res[static_cast<std::size_t>(a % 8)],
                                 res[static_cast<std::size_t>((a + 3) % 8)]}});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FluidRecompute)->Arg(16)->Arg(64)->Arg(256);

void BM_WordcountLogical(benchmark::State& state) {
  workloads::TextCorpus corpus(5000);
  const auto lines = corpus.generate(1024.0 * static_cast<double>(state.range(0)));
  mapreduce::LocalJobRunner runner(4);
  for (auto _ : state) {
    auto result = runner.run(workloads::wordcount_job(2, true), lines, 4);
    benchmark::DoNotOptimize(result.output.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 1024);
}
BENCHMARK(BM_WordcountLogical)->Arg(64)->Arg(512);

/// Spill-sort yardstick: WordcountMapper run over a TextCorpus (the
/// local-wordcount key mix) fills one KVBatch, as a map task's arena; each
/// iteration sorts a fresh copy of its first n entries with sort_entries.
/// n = 163840 is one whole local-wordcount spill partition, which the
/// runner sorts in one call; n = 20480 is a smaller range of the same key
/// mix. `comparisons` is the key-comparison count of one sort.
void BM_SortEntries(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  mapreduce::Context ctx;
  workloads::WordcountMapper mapper;
  for (const auto& line : workloads::TextCorpus(20000).generate(16.0 * static_cast<double>(n))) {
    mapper.map(line.key, line.value, ctx);
  }
  const mapreduce::KVBatch batch = ctx.take_batch();
  if (batch.size() < n) {
    state.SkipWithError("corpus too small");
    return;
  }
  const auto first = batch.entries().first(n);
  std::vector<mapreduce::KVBatch::Entry> entries;
  std::int64_t comparisons = 0;
  for (auto _ : state) {
    state.PauseTiming();
    entries.assign(first.begin(), first.end());
    state.ResumeTiming();
    comparisons = mapreduce::sort_entries(entries);
    benchmark::DoNotOptimize(entries.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["comparisons"] = static_cast<double>(comparisons);
}
BENCHMARK(BM_SortEntries)->Arg(20480)->Arg(163840);

void BM_KMeansIteration(benchmark::State& state) {
  auto data = ml::display_clustering_samples(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto run = ml::kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4,
                                                          .max_iterations = 1,
                                                          .threads = 4}});
    benchmark::DoNotOptimize(run.centers.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeansIteration)->Arg(1000)->Arg(10000);

/// Console output as usual, plus one BenchResults row per benchmark run
/// (aggregates included, tagged via the run_type/aggregate columns), with
/// every user counter as a column of its own.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      results_.row()
          .col("name", run.benchmark_name())
          .col("run_type", run.run_type == Run::RT_Aggregate ? "aggregate" : "iteration")
          .col("real_time_ns", run.GetAdjustedRealTime())
          .col("cpu_time_ns", run.GetAdjustedCPUTime())
          .col("iterations", static_cast<double>(run.iterations));
      for (const auto& [name, counter] : run.counters) results_.col(name, counter.value);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bench::BenchResults& results() { return results_; }

 private:
  bench::BenchResults results_{"micro_engine"};
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  reporter.results().write();
  return 0;
}
