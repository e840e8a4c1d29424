#include "workloads/terasort.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mapreduce/stock_reducers.hpp"

namespace vhadoop::workloads {

int TeraSort::num_input_blocks() const {
  return std::max(1, static_cast<int>(std::ceil(total_bytes / block_size)));
}

mapreduce::SimJobSpec TeraSort::sim_teragen(const std::string& input_path) const {
  mapreduce::SimJobSpec spec;
  spec.name = "teragen";
  spec.map_output_to_hdfs = true;
  spec.output_path = input_path;
  const int n = num_input_blocks();
  const double per_map = total_bytes / n;
  for (int m = 0; m < n; ++m) {
    // Generation is cheap CPU (PRNG) + a full HDFS pipeline write.
    spec.maps.push_back({.input_bytes = 0.0,
                         .cpu_seconds = per_map * 2.5e-8,
                         .output_bytes = per_map});
  }
  return spec;
}

mapreduce::SimJobSpec TeraSort::sim_terasort(const std::string& input_path,
                                             const std::string& output_path) const {
  mapreduce::SimJobSpec spec;
  spec.name = "terasort";
  spec.output_path = output_path;
  const int n = num_input_blocks();
  const double per_map = total_bytes / n;
  for (int m = 0; m < n; ++m) {
    // Identity map: output == input; CPU is deserialization + sort feed.
    spec.maps.push_back({.input_path = input_path + "/map-" + std::to_string(m % n),
                         .block_index = -1,
                         .input_bytes = per_map,
                         .cpu_seconds = per_map * 6e-8,
                         .output_bytes = per_map});
  }
  const double per_reduce = total_bytes / std::max(1, num_reduces);
  for (int r = 0; r < num_reduces; ++r) {
    // Merge + identity reduce + output write; CPU ~ n log n merge feed.
    spec.reduces.push_back({.cpu_seconds = per_reduce * 8e-8, .output_bytes = per_reduce});
  }
  return spec;
}

mapreduce::SimJobSpec TeraSort::sim_teravalidate(const std::string& output_path) const {
  mapreduce::SimJobSpec spec;
  spec.name = "teravalidate";
  spec.output_path = output_path + "/.validate";
  const double per_reduce = total_bytes / std::max(1, num_reduces);
  for (int r = 0; r < num_reduces; ++r) {
    spec.maps.push_back({.input_path = output_path + "/part-" + std::to_string(r),
                         .block_index = -1,
                         .input_bytes = per_reduce,
                         .cpu_seconds = per_reduce * 2e-8,
                         .output_bytes = 64.0});
  }
  spec.reduces.push_back({.cpu_seconds = 0.01, .output_bytes = 64.0});
  return spec;
}

// --- real record-level pieces -------------------------------------------------

std::vector<mapreduce::KV> TeraSort::generate_records(std::int64_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<mapreduce::KV> records;
  records.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    std::string key(10, ' ');
    for (char& c : key) c = static_cast<char>(' ' + rng.uniform_int(95));
    // 90-byte payload: row id + filler, as TeraGen lays records out.
    std::string value = std::to_string(i);
    value.resize(90, 'X');
    records.push_back({std::move(key), std::move(value)});
  }
  return records;
}

namespace {

class IdentityMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    ctx.emit(std::string(key), std::string(value));
  }
};

}  // namespace

mapreduce::JobSpec TeraSort::sort_job(int num_reduces,
                                      const std::vector<mapreduce::KV>& sample) {
  // TotalOrderPartitioner: split points are the (i/R)-quantiles of the
  // sampled keys, so partition p holds keys in [split[p-1], split[p]).
  std::vector<std::string> keys;
  keys.reserve(sample.size());
  for (const auto& kv : sample) keys.push_back(kv.key);
  std::sort(keys.begin(), keys.end());
  auto splits = std::make_shared<std::vector<std::string>>();
  for (int r = 1; r < num_reduces; ++r) {
    const std::size_t idx = keys.empty() ? 0 : keys.size() * static_cast<std::size_t>(r) /
                                                   static_cast<std::size_t>(num_reduces);
    splits->push_back(keys.empty() ? std::string() : keys[std::min(idx, keys.size() - 1)]);
  }

  mapreduce::JobSpec spec;
  spec.config.name = "terasort";
  spec.config.num_reduces = num_reduces;
  spec.config.cost.map_cpu_per_byte = 6e-8;
  spec.config.cost.reduce_cpu_per_byte = 8e-8;
  spec.mapper = [] { return std::make_unique<IdentityMapper>(); };
  spec.reducer = [] { return std::make_unique<mapreduce::IdentityReducer>(); };
  spec.partitioner = [splits](std::string_view key, int) {
    const auto it = std::upper_bound(splits->begin(), splits->end(), key,
                                     [](std::string_view k, const std::string& s) { return k < s; });
    return static_cast<int>(std::distance(splits->begin(), it));
  };
  return spec;
}

bool TeraSort::validate_sorted(const std::vector<mapreduce::KV>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].key < records[i - 1].key) return false;
  }
  return true;
}

}  // namespace vhadoop::workloads
