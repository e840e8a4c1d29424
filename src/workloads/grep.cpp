#include "workloads/grep.hpp"

#include <algorithm>
#include <memory>

#include "mapreduce/local_runner.hpp"
#include "mapreduce/stock_reducers.hpp"

namespace vhadoop::workloads {

namespace {

class GrepMapper : public mapreduce::Mapper {
 public:
  explicit GrepMapper(std::string pattern) : pattern_(std::move(pattern)) {}

  void map(std::string_view, std::string_view value, mapreduce::Context& ctx) override {
    // Count whitespace-delimited tokens containing the pattern — the shape
    // of the example's word-oriented greps.
    std::size_t i = 0;
    while (i < value.size()) {
      while (i < value.size() && value[i] == ' ') ++i;
      std::size_t j = i;
      while (j < value.size() && value[j] != ' ') ++j;
      if (j > i) {
        const std::string_view word = value.substr(i, j - i);
        if (word.find(pattern_) != std::string_view::npos) {
          ctx.emit(std::string(word), mapreduce::encode_i64(1));
        }
      }
      i = j;
    }
  }

 private:
  std::string pattern_;
};

/// Sort job: invert (word, n) -> (n as sortable key, word); a single
/// identity reducer emits in descending count order.
class InvertMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    // Fixed-width zero-padded negative-count key sorts descending
    // lexicographically.
    const std::int64_t n = mapreduce::decode_i64(value);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%019lld", static_cast<long long>(1000000000000000000LL - n));
    ctx.emit(buf, std::string(key));
  }
};

}  // namespace

mapreduce::JobSpec grep_search_job(const std::string& pattern, int num_reduces) {
  mapreduce::JobSpec spec;
  spec.config.name = "grep-search";
  spec.config.num_reduces = num_reduces;
  spec.config.use_combiner = true;
  spec.config.cost.map_cpu_per_byte = 2.5e-8;  // substring scan
  spec.config.cost.map_cpu_per_record = 3e-7;
  spec.mapper = [pattern] { return std::make_unique<GrepMapper>(pattern); };
  spec.reducer = [] { return std::make_unique<mapreduce::LongSumReducer>(); };
  spec.combiner = [] { return std::make_unique<mapreduce::LongSumReducer>(); };
  return spec;
}

GrepResult grep(const std::string& pattern, std::span<const mapreduce::KV> input,
                int num_splits, unsigned threads) {
  mapreduce::LocalJobRunner runner(threads);
  GrepResult result;
  result.jobs.push_back(runner.run(grep_search_job(pattern), input, num_splits));

  mapreduce::JobSpec sort_spec;
  sort_spec.config.name = "grep-sort";
  sort_spec.config.num_reduces = 1;
  sort_spec.mapper = [] { return std::make_unique<InvertMapper>(); };
  sort_spec.reducer = [] { return std::make_unique<mapreduce::IdentityReducer>(); };
  result.jobs.push_back(runner.run(sort_spec, result.jobs[0].output, 1));

  // Decode the sorted output: value = word, key encodes inverted count.
  for (const mapreduce::KV& kv : result.jobs[1].output) {
    const long long inv = std::stoll(kv.key);
    result.matches.emplace_back(kv.value, 1000000000000000000LL - inv);
  }
  return result;
}

}  // namespace vhadoop::workloads
