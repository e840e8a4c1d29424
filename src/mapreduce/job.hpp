#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/kv.hpp"
#include "mapreduce/kv_batch.hpp"

namespace vhadoop::mapreduce {

/// Output collector handed to user map/reduce functions. Emitted records go
/// straight into an arena-backed KVBatch: one bulk byte copy per record
/// instead of two std::string allocations, and value payloads land 8-byte
/// aligned so `decode_vec_view` reads them in place downstream.
///
/// A Context can instead be switched to *direct* mode (`materialize_direct`)
/// before any emit: records then become owning strings immediately.
/// LocalJobRunner uses this for the final reduce stage, whose output must
/// end up as owning strings in JobResult anyway — emitting through the
/// arena there would be a pure extra copy of every output record.
class Context {
 public:
  void emit(std::string_view key, std::string_view value) {
    if (direct_) {
      direct_bytes_ += key.size() + value.size();
      out_.push_back({std::string(key), std::string(value)});
    } else {
      batch_.push(key, value);
    }
  }

  /// Capacity hint for the expected number of emits (pass-through reducers
  /// emit one record per input record; LocalJobRunner::run's reduce tasks
  /// pass their input record count).
  void reserve(std::size_t records) {
    if (direct_) out_.reserve(records);
    else batch_.reserve_entries(records);
  }

  /// Emit owning strings from here on (only valid before the first emit).
  void materialize_direct() { direct_ = true; }

  std::size_t emitted_records() const { return direct_ ? out_.size() : batch_.size(); }
  std::size_t emitted_bytes() const { return direct_ ? direct_bytes_ : batch_.total_bytes(); }

  /// Arena-backed output — the optimized data path consumes this directly.
  KVBatch take_batch() { return std::move(batch_); }

  /// Materialize records as owning strings (final reduce output, the test
  /// oracle, tests).
  std::vector<KV> take_output() {
    if (direct_) {
      direct_bytes_ = 0;
      return std::move(out_);
    }
    std::vector<KV> out;
    out.reserve(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      out.push_back({std::string(batch_.key(i)), std::string(batch_.value(i))});
    }
    batch_.clear();
    return out;
  }

 private:
  KVBatch batch_;
  std::vector<KV> out_;
  std::size_t direct_bytes_ = 0;
  bool direct_ = false;
};

/// User map function, one instance per map task (Hadoop semantics: state
/// may accumulate across records of one split; `cleanup` may emit).
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void setup(Context&) {}
  virtual void map(std::string_view key, std::string_view value, Context& ctx) = 0;
  virtual void cleanup(Context&) {}
};

/// User reduce function; also used as a combiner when configured.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void setup(Context&) {}
  virtual void reduce(std::string_view key, const std::vector<std::string_view>& values,
                      Context& ctx) = 0;
  virtual void cleanup(Context&) {}
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// Compute-cost coefficients used to translate a task's real record/byte
/// counts into simulated core-seconds. Per-job because a Dirichlet
/// posterior sample costs far more per record than a Wordcount tokenize.
struct CostModel {
  double map_cpu_per_record = 2e-6;
  double map_cpu_per_byte = 8e-9;
  double reduce_cpu_per_record = 2e-6;
  double reduce_cpu_per_byte = 8e-9;
  /// Fixed per-task compute (input format init, output commit).
  double task_cpu_fixed = 0.05;
};

struct JobConfig {
  std::string name = "job";
  int num_reduces = 1;
  bool use_combiner = false;
  CostModel cost;
};

/// Key -> reduce-partition function (Hadoop Partitioner). Defaults to the
/// stable hash partitioner; TeraSort swaps in a total-order partitioner.
using Partitioner = std::function<int(std::string_view key, int num_reduces)>;

/// A runnable MapReduce job: factories (tasks run in parallel threads, each
/// task gets a fresh instance) plus configuration.
struct JobSpec {
  JobConfig config;
  MapperFactory mapper;
  ReducerFactory reducer;
  ReducerFactory combiner;   // optional; required if config.use_combiner
  Partitioner partitioner;   // optional; default HashPartitioner
};

/// Measured facts about one executed task, fed to the simulated cluster.
struct TaskProfile {
  double input_bytes = 0.0;
  std::int64_t input_records = 0;
  double output_bytes = 0.0;
  std::int64_t output_records = 0;
  double cpu_seconds = 0.0;
};

/// Deterministic data-path counters for one job run. All counters are
/// exact functions of the job's records (no clocks, no addresses), so
/// bench/ml_scaling can gate on them machine-independently. The comparison
/// and arena counters come from LocalJobRunner's own sort/merge/arena code
/// (kv_batch.hpp, reduce_merge.hpp); the test oracle
/// (tests/testutil/reference_runner.hpp) has none of that code, so it fills
/// just the record/byte counters and leaves them zero.
struct DataPathStats {
  std::int64_t map_emit_records = 0;   ///< records emitted by all mappers
  std::int64_t map_emit_bytes = 0;     ///< logical bytes emitted by all mappers
  std::int64_t shuffle_records = 0;    ///< records crossing map->reduce (post-combine)
  /// Key comparisons (compare_entries calls) of the map-side spill sorts,
  /// combiner re-sorts included. Each partition is sorted whole by
  /// sort_entries, so this is a function of the data alone, the same at
  /// every thread count. The radix split's counting passes compare no keys
  /// and are not counted.
  std::int64_t sort_comparisons = 0;
  /// Key comparisons of the reduce-side k-way merges (ReduceMerge): per
  /// reduce partition, the sum over the key ranges of plan_merge_ranges,
  /// each merged on its own heap. A function of the data alone, the same
  /// at every thread count.
  std::int64_t merge_comparisons = 0;
  std::int64_t arena_chunks = 0;       ///< map-side KVBatch chunks (spill + combiner arenas)
};

/// Everything a logical (in-process) job run produces.
struct JobResult {
  /// Reduce outputs concatenated in partition order (keys sorted within
  /// each partition, as Hadoop part-r-* files are).
  std::vector<KV> output;
  std::vector<TaskProfile> map_profiles;
  std::vector<TaskProfile> reduce_profiles;
  /// shuffle_matrix[m][r]: bytes map m sent to reduce r (real skew).
  std::vector<std::vector<double>> shuffle_matrix;
  double total_shuffle_bytes = 0.0;
  DataPathStats stats;
};

}  // namespace vhadoop::mapreduce
