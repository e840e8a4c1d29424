#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
/// Records stay in arena-backed KVBatch chunks end to end: index sorts with
/// an 8-byte key-prefix fast path, a true k-way merge feeding reducers, and
/// shuffle bytes accounted during partitioning (DESIGN.md §11). The
/// original std::vector<KV> implementation lives on as a test oracle
/// (tests/testutil/reference_runner.hpp); the equivalence suite and
/// bench/ml_scaling assert that outputs, profiles and shuffle accounting
/// match it exactly.
class LocalJobRunner {
 public:
  explicit LocalJobRunner(unsigned threads = 0, const RunnerTuning& tuning = {});

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
  const RunnerTuning& tuning() const { return tuning_; }

 private:
  unsigned threads_;
  RunnerTuning tuning_;
};

/// Anything that runs a job the way LocalJobRunner::run does. Drivers that
/// take one (ml::ClusteringConfig::run_job) let a caller substitute another
/// executor, such as the test oracle, without an environment switch.
using RunJob =
    std::function<JobResult(const JobSpec& spec, std::span<const KV> input, int num_splits)>;

/// Number of map tasks a run over `input_size` records uses: `num_splits`,
/// or one per thread when it is <= 0, clamped to [1, max(1, input_size)].
int clamp_splits(int num_splits, unsigned threads, std::size_t input_size);

/// Modeled compute seconds of one task (CostModel): input drives the
/// dominant term, emitted data costs the same rates again at half weight.
double modeled_task_cpu(const CostModel& cost, std::int64_t in_records, double in_bytes,
                        std::int64_t out_records, double out_bytes, bool is_map);

}  // namespace vhadoop::mapreduce
