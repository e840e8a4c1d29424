#include "workloads/pi_estimator.hpp"

#include <memory>

#include "mapreduce/local_runner.hpp"
#include "mapreduce/stock_reducers.hpp"
#include "sim/rng.hpp"

namespace vhadoop::workloads {

namespace {

class PiMapper : public mapreduce::Mapper {
 public:
  explicit PiMapper(std::int64_t samples) : samples_(samples) {}

  void map(std::string_view key, std::string_view, mapreduce::Context& ctx) override {
    // Each map's dart stream is seeded by its task id, like the example's
    // per-task Halton offset.
    sim::Rng rng(0x9e3779b97f4a7c15ULL ^ mapreduce::stable_hash(key));
    std::int64_t inside = 0;
    for (std::int64_t s = 0; s < samples_; ++s) {
      const double x = rng.uniform() - 0.5;
      const double y = rng.uniform() - 0.5;
      inside += (x * x + y * y <= 0.25);
    }
    ctx.emit("inside", mapreduce::encode_i64(inside));
    ctx.emit("total", mapreduce::encode_i64(samples_));
  }

 private:
  std::int64_t samples_;
};

}  // namespace

PiEstimator::Result PiEstimator::run(unsigned threads) const {
  mapreduce::JobSpec spec;
  spec.config.name = "pi";
  spec.config.num_reduces = 1;
  // ~25M samples/s/core on era hardware.
  spec.config.cost.map_cpu_per_record = static_cast<double>(samples_per_map) / 25e6;
  const std::int64_t samples = samples_per_map;
  spec.mapper = [samples] { return std::make_unique<PiMapper>(samples); };
  spec.reducer = [] { return std::make_unique<mapreduce::LongSumReducer>(); };

  std::vector<mapreduce::KV> input;
  for (int m = 0; m < num_maps; ++m) input.push_back({"task-" + std::to_string(m), ""});

  mapreduce::LocalJobRunner runner(threads);
  Result result;
  result.job = runner.run(spec, input, num_maps);
  for (const mapreduce::KV& kv : result.job.output) {
    if (kv.key == "inside") result.inside = mapreduce::decode_i64(kv.value);
    if (kv.key == "total") result.total = mapreduce::decode_i64(kv.value);
  }
  if (result.total > 0) {
    result.pi = 4.0 * static_cast<double>(result.inside) / static_cast<double>(result.total);
  }
  return result;
}

mapreduce::SimJobSpec PiEstimator::sim_job(const std::string& output_path) const {
  mapreduce::SimJobSpec spec;
  spec.name = "pi";
  spec.output_path = output_path;
  const double cpu = static_cast<double>(samples_per_map) / 25e6;
  for (int m = 0; m < num_maps; ++m) {
    spec.maps.push_back({.input_bytes = 128.0, .cpu_seconds = cpu, .output_bytes = 64.0});
  }
  spec.reduces.push_back({.cpu_seconds = 0.01, .output_bytes = 32.0});
  return spec;
}

}  // namespace vhadoop::workloads
