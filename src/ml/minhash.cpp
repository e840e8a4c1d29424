#include "ml/minhash.hpp"

#include <charconv>
#include <cmath>
#include <memory>

namespace vhadoop::ml {

std::vector<std::int64_t> feature_set(const Vec& point, double bucket_width) {
  std::vector<std::int64_t> set;
  set.reserve(point.size());
  for (std::size_t d = 0; d < point.size(); ++d) {
    // Encode (dimension, bucket) as one integer element of the set.
    const auto bucket =
        static_cast<std::int64_t>(std::floor(point[d] / bucket_width));
    set.push_back(static_cast<std::int64_t>(d) * 1000003 + bucket);
  }
  return set;
}

namespace {

/// The i-th universal hash over set elements (splitmix-style mixing with a
/// per-function odd multiplier — Mahout's MurmurHash family stand-in).
std::uint64_t hash_element(std::int64_t element, int fn) {
  std::uint64_t z = static_cast<std::uint64_t>(element) +
                    0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(fn) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class MinHashMapper : public mapreduce::Mapper {
 public:
  explicit MinHashMapper(const MinHashConfig& cfg) : cfg_(cfg) {}

  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    const auto p = mapreduce::decode_vec_view(value, scratch_);
    // Inline feature_set: (dimension, bucket) elements feed the hash bank
    // directly, so the hot loop makes no heap allocations at all.
    minima_.assign(static_cast<std::size_t>(cfg_.num_hash_functions), ~0ULL);
    for (std::size_t d = 0; d < p.size(); ++d) {
      const auto bucket = static_cast<std::int64_t>(std::floor(p[d] / cfg_.bucket_width));
      const std::int64_t e = static_cast<std::int64_t>(d) * 1000003 + bucket;
      for (int f = 0; f < cfg_.num_hash_functions; ++f) {
        minima_[static_cast<std::size_t>(f)] =
            std::min(minima_[static_cast<std::size_t>(f)], hash_element(e, f));
      }
    }
    // Band the minima: every group of `keygroups` consecutive minima forms
    // one cluster key; a point lands in several buckets (standard LSH).
    for (int f = 0; f + cfg_.keygroups <= cfg_.num_hash_functions; f += cfg_.keygroups) {
      key_buf_.clear();
      for (int g = 0; g < cfg_.keygroups; ++g) {
        char digits[24];
        const auto [end, ec] = std::to_chars(
            digits, digits + sizeof(digits), minima_[static_cast<std::size_t>(f + g)] % 100000);
        (void)ec;
        key_buf_.append(digits, end);
        key_buf_ += '-';
      }
      ctx.emit(key_buf_, key);
    }
  }

 private:
  MinHashConfig cfg_;
  std::vector<double> scratch_;
  std::vector<std::uint64_t> minima_;
  std::string key_buf_;
};

class MinHashReducer : public mapreduce::Reducer {
 public:
  explicit MinHashReducer(int min_size) : min_size_(min_size) {}

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    if (static_cast<int>(values.size()) < min_size_) return;
    for (auto v : values) ctx.emit(key, v);
  }

 private:
  int min_size_;
};

}  // namespace

MinHashRun minhash_cluster(const Dataset& data, const MinHashConfig& config) {
  mapreduce::JobSpec spec;
  spec.config.name = "minhash";
  spec.config.num_reduces = config.base.num_reduces;
  spec.config.cost.map_cpu_per_record =
      1.5e-6 * static_cast<double>(config.num_hash_functions);
  spec.config.cost.map_cpu_per_byte = 4e-8;
  const MinHashConfig cfg = config;
  spec.mapper = [cfg] { return std::make_unique<MinHashMapper>(cfg); };
  const int min_size = config.min_cluster_size;
  spec.reducer = [min_size] { return std::make_unique<MinHashReducer>(min_size); };

  const mapreduce::RunJob run_job = job_runner(config.base);
  const auto records = to_records(data);

  MinHashRun run;
  run.algorithm = "minhash";
  run.jobs.push_back(run_job(spec, records, config.base.num_splits));
  run.iterations = 1;

  // Keys are hash-partitioned and sorted within each partition, so every
  // cluster's members are consecutive in the output: one map lookup per
  // cluster instead of per member.
  const std::vector<mapreduce::KV>& out = run.jobs[0].output;
  for (std::size_t i = 0; i < out.size();) {
    std::size_t j = i + 1;
    while (j < out.size() && out[j].key == out[i].key) ++j;
    std::vector<std::int64_t>& members = run.clusters[out[i].key];
    members.reserve(members.size() + (j - i));
    for (std::size_t t = i; t < j; ++t) {
      members.push_back(mapreduce::decode_i64(out[t].value));
    }
    i = j;
  }
  // Represent each cluster by its centroid for visualization parity.
  run.assignments.assign(data.size(), -1);
  int cluster_id = 0;
  for (const auto& [key, members] : run.clusters) {
    Vec sum;
    for (std::int64_t id : members) add_in_place(sum, data.points[static_cast<std::size_t>(id)]);
    run.centers.push_back(mean_of(std::move(sum), static_cast<double>(members.size())));
    for (std::int64_t id : members) {
      auto& slot = run.assignments[static_cast<std::size_t>(id)];
      if (slot < 0) slot = cluster_id;  // first (largest-band) bucket wins
    }
    ++cluster_id;
  }
  run.iteration_centers.push_back(run.centers);
  return run;
}

}  // namespace vhadoop::ml
