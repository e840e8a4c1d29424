#include "ml/kmeans.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "sim/rng.hpp"

namespace vhadoop::ml {

std::vector<Vec> seed_centers(const Dataset& data, int k, std::uint64_t seed) {
  if (k <= 0) throw std::invalid_argument("k <= 0");
  if (data.size() < static_cast<std::size_t>(k)) {
    throw std::invalid_argument("k exceeds dataset size");
  }
  sim::Rng rng(seed);
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  std::vector<Vec> centers;
  centers.reserve(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) centers.push_back(data.points[idx[static_cast<std::size_t>(c)]]);
  return centers;
}

namespace {

/// Value payload of a partial cluster observation: [count, sum...]. Built
/// with two memcpys straight into the output string — no intermediate Vec.
std::string encode_partial(double count, std::span<const double> sum) {
  std::string out((sum.size() + 1) * sizeof(double), '\0');
  std::memcpy(out.data(), &count, sizeof(double));
  if (!sum.empty()) std::memcpy(out.data() + sizeof(double), sum.data(), sum.size() * sizeof(double));
  return out;
}

std::pair<double, Vec> decode_partial(std::string_view s) {
  Vec payload = mapreduce::decode_vec(s);
  const double count = payload.empty() ? 0.0 : payload[0];
  Vec sum(payload.begin() + (payload.empty() ? 0 : 1), payload.end());
  return {count, std::move(sum)};
}

class KMeansMapper : public mapreduce::Mapper {
 public:
  explicit KMeansMapper(std::shared_ptr<const CenterMatrix> centers)
      : centers_(std::move(centers)),
        sums_(centers_->rows() * centers_->cols(), 0.0),
        counts_(centers_->rows(), 0.0) {}

  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    // Arena-backed values are 8-byte aligned, so this is a zero-copy read.
    const auto p = mapreduce::decode_vec_view(value, scratch_);
    const auto c = static_cast<std::size_t>(nearest_center(p, *centers_));
    double* sum = sums_.data() + c * centers_->cols();
    for (std::size_t i = 0; i < p.size(); ++i) sum[i] += p[i];
    counts_[c] += 1.0;
  }

  void cleanup(mapreduce::Context& ctx) override {
    // In-mapper combining (one partial per cluster per task — what the
    // combiner would produce anyway, with identical shuffle volume).
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      if (counts_[c] > 0.0) {
        ctx.emit(std::to_string(c),
                 encode_partial(counts_[c], {sums_.data() + c * centers_->cols(), centers_->cols()}));
      }
    }
  }

 private:
  std::shared_ptr<const CenterMatrix> centers_;
  std::vector<double> sums_;  // row-major [cluster][dim] accumulators
  std::vector<double> counts_;
  std::vector<double> scratch_;
};

class KMeansReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    double count = 0.0;
    sum_.clear();
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      if (payload.empty()) continue;
      count += payload[0];
      const auto s = payload.subspan(1);
      if (sum_.empty()) sum_.assign(s.begin(), s.end());
      else {
        check_same_dim(sum_, s);
        for (std::size_t i = 0; i < s.size(); ++i) sum_[i] += s[i];
      }
    }
    if (count > 0.0) scale_in_place(sum_, 1.0 / count);
    ctx.emit(key, encode_partial(count, sum_));
  }

 private:
  Vec sum_;
  std::vector<double> scratch_;
};

}  // namespace

ClusteringRun kmeans_cluster(const Dataset& data, const KMeansConfig& config,
                             std::vector<Vec> initial_centers) {
  auto centers = std::make_shared<std::vector<Vec>>(
      initial_centers.empty() ? seed_centers(data, config.k) : std::move(initial_centers));

  const mapreduce::RunJob run_job = job_runner(config.base);
  const auto records = to_records(data);

  ClusteringRun run;
  run.algorithm = "kmeans";
  run.iteration_centers.push_back(*centers);

  for (int iter = 0; iter < config.base.max_iterations; ++iter) {
    mapreduce::JobSpec spec;
    spec.config.name = "kmeans-iter" + std::to_string(iter);
    spec.config.num_reduces = config.base.num_reduces;
    spec.config.cost.map_cpu_per_record = 4e-6 * static_cast<double>(centers->size());
    spec.config.cost.map_cpu_per_byte = 1.5e-8;
    // Mappers see this iteration's centers as one flat row-major snapshot.
    auto snapshot = std::make_shared<const CenterMatrix>(*centers);
    spec.mapper = [snapshot] { return std::make_unique<KMeansMapper>(snapshot); };
    spec.reducer = [] { return std::make_unique<KMeansReducer>(); };

    auto result = run_job(spec, records, config.base.num_splits);
    ++run.iterations;

    std::vector<Vec> next = *centers;  // empty clusters keep their center
    double max_move = 0.0;
    for (const mapreduce::KV& kv : result.output) {
      const auto c = static_cast<std::size_t>(std::stoul(kv.key));
      auto [count, mean] = decode_partial(kv.value);
      if (count > 0.0) {
        max_move = std::max(max_move, euclidean(mean, (*centers)[c]));
        next[c] = std::move(mean);
      }
    }
    run.jobs.push_back(std::move(result));
    centers = std::make_shared<std::vector<Vec>>(std::move(next));
    run.iteration_centers.push_back(*centers);
    if (max_move < config.base.convergence_delta) break;
  }

  run.centers = *centers;
  run.assignments = assign_nearest(data, run.centers, config.base.threads);
  return run;
}

}  // namespace vhadoop::ml
