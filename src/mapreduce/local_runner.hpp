#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "mapreduce/job.hpp"

namespace vhadoop::mapreduce {

/// The *logical* MapReduce engine: really executes user Mapper/Combiner/
/// Reducer code, multi-threaded, with Hadoop's dataflow — split, map,
/// hash-partition, sort, combine, shuffle, merge, group, reduce. It
/// produces (a) the job's real output and (b) per-task profiles (records,
/// bytes, modeled CPU cost) that the simulated virtual cluster replays for
/// timing. Correctness is real; only wall-clock is modeled.
///
/// Records stay in arena-backed KVBatch chunks end to end: index sorts with
/// an 8-byte key-prefix fast path, a k-way merge that each reduce task pulls
/// its reducer's input from, with no merged copy in between, and shuffle
/// bytes accounted during partitioning (DESIGN.md §11, §15). The
/// original std::vector<KV> implementation lives on as a test oracle
/// (tests/testutil/reference_runner.hpp); the equivalence suite and
/// bench/ml_scaling assert that outputs, profiles and shuffle accounting
/// match it exactly.
class LocalJobRunner {
 public:
  explicit LocalJobRunner(unsigned threads = 0);

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

 private:
  unsigned threads_;
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
