#include "workloads/mrbench.hpp"

#include <memory>

#include "mapreduce/stock_reducers.hpp"

namespace vhadoop::workloads {

namespace {

/// MRBench's mapper: strips non-digits from the value and emits it keyed
/// by the input key (we keep the literal behaviour: near-identity work).
class MrBenchMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    std::string digits;
    for (char c : value) {
      if (c >= '0' && c <= '9') digits += c;
    }
    ctx.emit(std::string(key), digits);
  }
};

}  // namespace

mapreduce::JobSpec MrBench::job() const {
  mapreduce::JobSpec spec;
  spec.config.name = "mrbench";
  spec.config.num_reduces = num_reduces;
  spec.mapper = [] { return std::make_unique<MrBenchMapper>(); };
  spec.reducer = [] { return std::make_unique<mapreduce::IdentityReducer>(); };
  return spec;
}

std::vector<mapreduce::KV> MrBench::input() const {
  std::vector<mapreduce::KV> records;
  for (int m = 0; m < num_maps; ++m) {
    for (int l = 0; l < lines_per_map; ++l) {
      const int i = m * lines_per_map + l;
      records.push_back({std::to_string(i), "key_" + std::to_string(i) + "_value_55555"});
    }
  }
  return records;
}

mapreduce::SimJobSpec MrBench::sim_job(const std::string& output_path) const {
  mapreduce::SimJobSpec spec;
  spec.name = "mrbench";
  spec.output_path = output_path;
  for (int m = 0; m < num_maps; ++m) {
    // A few hundred bytes of input/output per task: pure overhead regime.
    spec.maps.push_back({.input_bytes = 512.0 * lines_per_map,
                         .cpu_seconds = 0.02,
                         .output_bytes = 256.0 * lines_per_map});
  }
  for (int r = 0; r < num_reduces; ++r) {
    spec.reduces.push_back({.cpu_seconds = 0.02,
                            .output_bytes = 256.0 * lines_per_map * num_maps /
                                            std::max(1, num_reduces)});
  }
  return spec;
}

}  // namespace vhadoop::workloads
