#include "ml/kmeans.hpp"

#include <algorithm>
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

CenterPartialsMapper::CenterPartialsMapper(std::shared_ptr<const PointMatrix> centers)
    : centers_(std::move(centers)),
      sums_(centers_->rows() * centers_->cols(), 0.0),
      weights_(centers_->rows(), 0.0) {}

void CenterPartialsMapper::map(std::string_view, std::string_view value, mapreduce::Context&) {
  // Arena-backed values are 8-byte aligned, so this is a zero-copy read.
  weigh(mapreduce::decode_vec_view(value, scratch_));
}

void CenterPartialsMapper::add(std::size_t c, std::span<const double> point, double w) {
  if (w <= 0.0) return;
  weights_[c] += w;
  double* sum = sums_.data() + c * centers_->cols();
  for (std::size_t i = 0; i < point.size(); ++i) sum[i] += point[i] * w;
}

void CenterPartialsMapper::cleanup(mapreduce::Context& ctx) {
  for (std::size_t c = 0; c < weights_.size(); ++c) {
    if (weights_[c] > 0.0) {
      ctx.emit(std::to_string(c),
               encode_weighted(weights_[c], {sums_.data() + c * centers_->cols(), centers_->cols()}));
    }
  }
}

namespace {

/// Folds a center's partials into [weight, weighted mean].
class WeightedMeanReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    double weight = 0.0;
    sum_.clear();
    for (const std::string_view v : values) {
      if (v.empty()) continue;
      const Weighted partial = decode_weighted(v, scratch_);
      weight += partial.weight;
      add_in_place(sum_, partial.v);
    }
    if (weight > 0.0) scale_in_place(sum_, 1.0 / weight);
    ctx.emit(key, encode_weighted(weight, sum_));
  }

 private:
  Vec sum_;
  std::vector<double> scratch_;
};

/// Hard assignment: a point pulls its nearest center with weight 1.
class KMeansMapper final : public CenterPartialsMapper {
 public:
  using CenterPartialsMapper::CenterPartialsMapper;

 protected:
  void weigh(std::span<const double> point) override {
    add(static_cast<std::size_t>(nearest_center(point, centers())), point, 1.0);
  }
};

}  // namespace

ClusteringRun iterate_centers(const Dataset& data, const ClusteringConfig& base,
                              std::vector<Vec> centers, const std::string& algorithm,
                              const mapreduce::CostModel& cost,
                              const CenterMapperFactory& mapper) {
  const mapreduce::RunJob run_job = job_runner(base);
  const auto records = to_records(data);

  ClusteringRun run;
  run.algorithm = algorithm;
  run.iteration_centers.push_back(centers);
  std::vector<double> scratch;

  for (int iter = 0; iter < base.max_iterations; ++iter) {
    mapreduce::JobSpec spec;
    spec.config.name = algorithm + "-iter";
    spec.config.name += std::to_string(iter);
    spec.config.num_reduces = base.num_reduces;
    spec.config.cost = cost;
    // Mappers see this iteration's centers as one flat row-major snapshot.
    spec.mapper = [&mapper, snapshot = std::make_shared<const PointMatrix>(centers)] {
      return mapper(snapshot);
    };
    spec.reducer = [] { return std::make_unique<WeightedMeanReducer>(); };

    auto result = run_job(spec, records, base.num_splits);
    ++run.iterations;

    std::vector<Vec> next = centers;  // empty clusters keep their center
    double max_move = 0.0;
    for (const mapreduce::KV& kv : result.output) {
      const auto c = static_cast<std::size_t>(std::stoul(kv.key));
      const Weighted mean = decode_weighted(kv.value, scratch);
      if (mean.weight > 0.0) {
        max_move = std::max(max_move, euclidean(mean.v, centers[c]));
        next[c].assign(mean.v.begin(), mean.v.end());
      }
    }
    run.jobs.push_back(std::move(result));
    centers = std::move(next);
    run.iteration_centers.push_back(centers);
    if (max_move < base.convergence_delta) break;
  }

  run.centers = std::move(centers);
  run.assignments = assign_nearest(data, run.centers, base.threads);
  return run;
}

ClusteringRun kmeans_cluster(const Dataset& data, const KMeansConfig& config,
                             std::vector<Vec> initial_centers) {
  if (initial_centers.empty()) initial_centers = seed_centers(data, config.k);
  const double k = static_cast<double>(initial_centers.size());
  return iterate_centers(data, config.base, std::move(initial_centers), "kmeans",
                         {.map_cpu_per_record = 4e-6 * k, .map_cpu_per_byte = 1.5e-8},
                         [](std::shared_ptr<const PointMatrix> centers) {
                           return std::make_unique<KMeansMapper>(std::move(centers));
                         });
}

}  // namespace vhadoop::ml
