#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "mapreduce/job.hpp"

namespace vhadoop::mapreduce {

/// Split thresholds of the real-execution LocalJobRunner's sort and merge
/// stages (DESIGN.md §15). Both decide where work runs (serial vs
/// parallel), never what is computed — outputs and profiles are identical
/// at every setting, and the split structure they induce is a pure function
/// of data + config, so comparison counters stay reproducible across thread
/// counts. Only the tests set them, to force the parallel stages on tiny
/// inputs.
///
/// Validated at construction: both thresholds must be positive (a zero or
/// negative threshold would make the routing predicates degenerate).
struct RunnerTuning {
  RunnerTuning(std::int64_t sort_parallel_threshold_ = kDefaultSortParallelThreshold,
               std::int64_t merge_range_split_min_ = kDefaultMergeRangeSplitMin)
      : sort_parallel_threshold(sort_parallel_threshold_),
        merge_range_split_min(merge_range_split_min_) {
    if (sort_parallel_threshold <= 0) {
      throw std::invalid_argument("RunnerTuning: sort_parallel_threshold must be positive");
    }
    if (merge_range_split_min <= 0) {
      throw std::invalid_argument("RunnerTuning: merge_range_split_min must be positive");
    }
  }

  static constexpr std::int64_t kDefaultSortParallelThreshold = 1 << 15;
  static constexpr std::int64_t kDefaultMergeRangeSplitMin = 1 << 17;

  /// A spill-sort partition larger than this many entries is cut into
  /// power-of-two runs sorted in parallel (parallel_sort.hpp).
  std::int64_t sort_parallel_threshold;
  /// A reduce merge over more entries than this is split into prefix
  /// key-ranges merged in parallel; smaller merges stay serial.
  std::int64_t merge_range_split_min;
};

/// The *logical* MapReduce engine: really executes user Mapper/Combiner/
/// Reducer code, multi-threaded, with Hadoop's dataflow — split, map,
/// hash-partition, sort, combine, shuffle, merge, group, reduce. It
/// produces (a) the job's real output and (b) per-task profiles (records,
/// bytes, modeled CPU cost) that the simulated virtual cluster replays for
/// timing. Correctness is real; only wall-clock is modeled.
///
/// Two execution paths produce byte-identical results (DESIGN.md §11):
///  - optimized (default): arena-backed KVBatch records, index sorts with
///    an 8-byte key-prefix fast path, a true k-way merge feeding reducers,
///    shuffle bytes accounted during partitioning;
///  - reference oracle (`VHADOOP_RUNNER_REFERENCE=1`, or `reference` on
///    the second constructor): the original std::vector<KV> path —
///    partition moves, stable_sort, concatenate-and-re-sort merge. The
///    equivalence suite (tests/mapreduce/runner_equivalence_test.cpp) and
///    bench/ml_scaling assert outputs, profiles and shuffle accounting
///    match exactly.
class LocalJobRunner {
 public:
  /// Reference-oracle mode defaults to the VHADOOP_RUNNER_REFERENCE
  /// environment switch (mirroring VHADOOP_FLUID_REFERENCE).
  explicit LocalJobRunner(unsigned threads = 0);
  LocalJobRunner(unsigned threads, bool reference, const RunnerTuning& tuning = {});

  /// Run `spec` over `input`, cut into `num_splits` contiguous splits
  /// (one map task per split — Hadoop's FileInputFormat over block-aligned
  /// splits). num_splits <= 0 derives one split per thread.
  ///
  /// The runner owns no threads: its parallel phases borrow
  /// `WorkerPool::shared(threads())`, so constructing one per job is cheap.
  /// Concurrent calls, on one runner or several, are safe; calls that share
  /// a thread count take turns on that pool one parallel phase at a time.
  JobResult run(const JobSpec& spec, std::span<const KV> input, int num_splits) const;

  unsigned threads() const { return threads_; }
  bool reference() const { return reference_; }
  const RunnerTuning& tuning() const { return tuning_; }

 private:
  JobResult run_optimized(const JobSpec& spec, std::span<const KV> input, int num_splits) const;
  JobResult run_reference(const JobSpec& spec, std::span<const KV> input, int num_splits) const;

  unsigned threads_;
  bool reference_;
  RunnerTuning tuning_;
};

/// Group a key-sorted run of records and feed them to `reducer`. Exposed
/// for reuse by the reference-path combiner stage and by tests.
std::vector<KV> reduce_sorted(Reducer& reducer, std::span<const KV> sorted);

/// Stable sort by key (ties keep input order, like Hadoop's stable merge).
void sort_by_key(std::vector<KV>& records);

}  // namespace vhadoop::mapreduce
