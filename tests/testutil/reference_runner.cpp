#include "testutil/reference_runner.hpp"

#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "mapreduce/local_runner.hpp"

namespace vhadoop::testutil {

using mapreduce::JobResult;
using mapreduce::KV;
using mapreduce::TaskProfile;

namespace {

/// Stable sort by key (ties keep input order, like Hadoop's stable merge).
void sort_by_key(std::vector<KV>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
}

/// Group a key-sorted run of records and feed them to `reducer`.
std::vector<KV> reduce_sorted(mapreduce::Reducer& reducer, std::span<const KV> sorted) {
  mapreduce::Context ctx;
  reducer.setup(ctx);
  std::size_t i = 0;
  std::vector<std::string_view> values;
  while (i < sorted.size()) {
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].key == sorted[i].key) {
      values.push_back(sorted[j].value);
      ++j;
    }
    reducer.reduce(sorted[i].key, values, ctx);
    i = j;
  }
  reducer.cleanup(ctx);
  return ctx.take_output();
}

struct MapTaskOutput {
  std::vector<std::vector<KV>> partitions;  // [reduce] -> records (sorted)
  TaskProfile profile;
  std::int64_t emit_records = 0;
  std::int64_t emit_bytes = 0;
};

}  // namespace

JobResult ReferenceRunner::run(const mapreduce::JobSpec& spec, std::span<const KV> input,
                               int num_splits) const {
  const int R = spec.config.num_reduces;
  const int S = mapreduce::clamp_splits(num_splits, threads_, input.size());
  const auto partition = [&spec](std::string_view key, int reduces) {
    return spec.partitioner ? spec.partitioner(key, reduces)
                            : mapreduce::default_partition(key, reduces);
  };

  // --- map phase -----------------------------------------------------------
  std::vector<MapTaskOutput> map_out(static_cast<std::size_t>(S));
  const std::size_t n = input.size();
  parallel_for(static_cast<std::size_t>(S), threads_, [&](std::size_t m) {
    const std::size_t lo = n * m / static_cast<std::size_t>(S);
    const std::size_t hi = n * (m + 1) / static_cast<std::size_t>(S);
    auto split = input.subspan(lo, hi - lo);

    auto mapper = spec.mapper();
    mapreduce::Context ctx;
    mapper->setup(ctx);
    double in_bytes = 0.0;
    for (const KV& rec : split) {
      in_bytes += static_cast<double>(rec.bytes());
      mapper->map(rec.key, rec.value, ctx);
    }
    mapper->cleanup(ctx);
    MapTaskOutput& out = map_out[m];
    out.emit_records = static_cast<std::int64_t>(ctx.emitted_records());
    out.emit_bytes = static_cast<std::int64_t>(ctx.emitted_bytes());
    std::vector<KV> emitted = ctx.take_output();

    out.profile.input_records = static_cast<std::int64_t>(split.size());
    out.profile.input_bytes = in_bytes;

    // Partition, sort, optionally combine — the in-memory spill path.
    out.partitions.assign(static_cast<std::size_t>(R), {});
    for (KV& rec : emitted) {
      const int p = partition(rec.key, R);
      if (p < 0 || p >= R) throw std::out_of_range("partitioner returned out-of-range index");
      out.partitions[static_cast<std::size_t>(p)].push_back(std::move(rec));
    }
    for (auto& part : out.partitions) {
      sort_by_key(part);
      if (spec.config.use_combiner && !part.empty()) {
        auto combiner = spec.combiner();
        part = reduce_sorted(*combiner, part);
        sort_by_key(part);  // combiner may emit in any order
      }
      for (const KV& rec : part) {
        ++out.profile.output_records;
        out.profile.output_bytes += static_cast<double>(rec.bytes());
      }
    }
    out.profile.cpu_seconds = mapreduce::modeled_task_cpu(
        spec.config.cost, out.profile.input_records, out.profile.input_bytes,
        out.profile.output_records, out.profile.output_bytes, /*is_map=*/true);
  });

  // --- shuffle accounting --------------------------------------------------
  JobResult result;
  result.shuffle_matrix.assign(static_cast<std::size_t>(S),
                               std::vector<double>(static_cast<std::size_t>(R), 0.0));
  for (int m = 0; m < S; ++m) {
    for (int r = 0; r < R; ++r) {
      double bytes = 0.0;
      for (const KV& rec :
           map_out[static_cast<std::size_t>(m)].partitions[static_cast<std::size_t>(r)]) {
        bytes += static_cast<double>(rec.bytes());
      }
      result.shuffle_matrix[static_cast<std::size_t>(m)][static_cast<std::size_t>(r)] = bytes;
      result.total_shuffle_bytes += bytes;
    }
  }

  // --- reduce phase --------------------------------------------------------
  std::vector<std::vector<KV>> reduce_out(static_cast<std::size_t>(R));
  std::vector<TaskProfile> reduce_profiles(static_cast<std::size_t>(R));
  parallel_for(static_cast<std::size_t>(R), threads_, [&](std::size_t r) {
    // Merge the sorted segments from every map (Hadoop's merge phase);
    // segments are already sorted so a stable sort of the concatenation is
    // equivalent to the k-way merge.
    std::vector<KV> merged;
    TaskProfile& prof = reduce_profiles[r];
    for (int m = 0; m < S; ++m) {
      const auto& part = map_out[static_cast<std::size_t>(m)].partitions[r];
      prof.input_records += static_cast<std::int64_t>(part.size());
      for (const KV& rec : part) prof.input_bytes += static_cast<double>(rec.bytes());
      merged.insert(merged.end(), part.begin(), part.end());
    }
    sort_by_key(merged);

    auto reducer = spec.reducer();
    reduce_out[r] = reduce_sorted(*reducer, merged);
    for (const KV& rec : reduce_out[r]) {
      ++prof.output_records;
      prof.output_bytes += static_cast<double>(rec.bytes());
    }
    prof.cpu_seconds =
        mapreduce::modeled_task_cpu(spec.config.cost, prof.input_records, prof.input_bytes,
                                    prof.output_records, prof.output_bytes, /*is_map=*/false);
  });

  // Record/byte stats only: this path has no entry sorts, k-way merge, or
  // arenas to count (DataPathStats doc in job.hpp).
  for (const MapTaskOutput& m : map_out) {
    result.map_profiles.push_back(m.profile);
    result.stats.map_emit_records += m.emit_records;
    result.stats.map_emit_bytes += m.emit_bytes;
  }
  for (const TaskProfile& prof : reduce_profiles) {
    result.stats.shuffle_records += prof.input_records;
  }
  result.reduce_profiles = std::move(reduce_profiles);
  for (auto& part : reduce_out) {
    result.output.insert(result.output.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
  }
  return result;
}

}  // namespace vhadoop::testutil
