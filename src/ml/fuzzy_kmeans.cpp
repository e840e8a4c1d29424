#include "ml/fuzzy_kmeans.hpp"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "ml/kmeans.hpp"

namespace vhadoop::ml {

namespace {

/// Shared core of the membership computation, writing into caller-owned
/// scratch (`dist`, `u`) so the mapper's hot loop does not allocate.
void memberships_into(std::span<const double> point, const CenterMatrix& centers, double m,
                      Vec& dist, Vec& u) {
  if (m <= 1.0) throw std::invalid_argument("fuzzy k-means: m must be > 1");
  const double exponent = 2.0 / (m - 1.0);
  const std::size_t k = centers.rows();
  dist.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    dist[j] = euclidean(point, centers.row(j));
  }
  u.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    // vlint: allow(no-exact-float-compare) audited PR 8: coincident-center guard; euclidean() of identical points is exactly zero
    if (dist[j] == 0.0) {
      // Point coincides with a center: full membership there.
      u.assign(k, 0.0);
      u[j] = 1.0;
      return;
    }
    // The own-center term is pow(d / d, e): exactly 1 for a finite non-zero
    // d, since d / d is exactly 1 and pow(1, e) is 1. NaN and infinite
    // distances still go through pow.
    const bool own_term_is_one = std::isfinite(dist[j]);
    double denom = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      denom += kk == j && own_term_is_one ? 1.0 : std::pow(dist[j] / dist[kk], exponent);
    }
    u[j] = 1.0 / denom;
  }
}

}  // namespace

Vec memberships(const Vec& point, const std::vector<Vec>& centers, double m) {
  const CenterMatrix flat(centers);
  Vec dist, u;
  memberships_into(point, flat, m, dist, u);
  return u;
}

namespace {

std::string encode_partial(double weight, std::span<const double> sum) {
  std::string out((sum.size() + 1) * sizeof(double), '\0');
  std::memcpy(out.data(), &weight, sizeof(double));
  if (!sum.empty()) std::memcpy(out.data() + sizeof(double), sum.data(), sum.size() * sizeof(double));
  return out;
}

std::pair<double, Vec> decode_partial(std::string_view s) {
  Vec payload = mapreduce::decode_vec(s);
  const double w = payload.empty() ? 0.0 : payload[0];
  Vec sum(payload.begin() + (payload.empty() ? 0 : 1), payload.end());
  return {w, std::move(sum)};
}

class FuzzyMapper : public mapreduce::Mapper {
 public:
  FuzzyMapper(std::shared_ptr<const CenterMatrix> centers, double m)
      : centers_(std::move(centers)),
        m_(m),
        sums_(centers_->rows() * centers_->cols(), 0.0),
        weights_(centers_->rows(), 0.0) {}

  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    const auto p = mapreduce::decode_vec_view(value, scratch_);
    memberships_into(p, *centers_, m_, dist_, u_);
    const std::size_t dim = centers_->cols();
    for (std::size_t j = 0; j < u_.size(); ++j) {
      const double w = std::pow(u_[j], m_);
      if (w <= 0.0) continue;
      weights_[j] += w;
      double* sum = sums_.data() + j * dim;
      for (std::size_t i = 0; i < p.size(); ++i) sum[i] += p[i] * w;
    }
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (weights_[j] > 0.0) {
        ctx.emit(std::to_string(j),
                 encode_partial(weights_[j], {sums_.data() + j * centers_->cols(), centers_->cols()}));
      }
    }
  }

 private:
  std::shared_ptr<const CenterMatrix> centers_;
  double m_;
  std::vector<double> sums_;  // row-major [cluster][dim] weighted accumulators
  std::vector<double> weights_;
  std::vector<double> scratch_;
  Vec dist_, u_;
};

class FuzzyReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    double weight = 0.0;
    sum_.clear();
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      if (payload.empty()) continue;
      weight += payload[0];
      const auto s = payload.subspan(1);
      if (sum_.empty()) sum_.assign(s.begin(), s.end());
      else {
        check_same_dim(sum_, s);
        for (std::size_t i = 0; i < s.size(); ++i) sum_[i] += s[i];
      }
    }
    if (weight > 0.0) scale_in_place(sum_, 1.0 / weight);
    ctx.emit(key, encode_partial(weight, sum_));
  }

 private:
  Vec sum_;
  std::vector<double> scratch_;
};

}  // namespace

ClusteringRun fuzzy_kmeans_cluster(const Dataset& data, const FuzzyKMeansConfig& config,
                                   std::vector<Vec> initial_centers) {
  auto centers = std::make_shared<std::vector<Vec>>(
      initial_centers.empty() ? seed_centers(data, config.k) : std::move(initial_centers));

  const mapreduce::RunJob run_job = job_runner(config.base);
  const auto records = to_records(data);

  ClusteringRun run;
  run.algorithm = "fuzzykmeans";
  run.iteration_centers.push_back(*centers);

  for (int iter = 0; iter < config.base.max_iterations; ++iter) {
    mapreduce::JobSpec spec;
    spec.config.name = "fuzzykmeans-iter" + std::to_string(iter);
    spec.config.num_reduces = config.base.num_reduces;
    spec.config.cost.map_cpu_per_record = 9e-6 * static_cast<double>(centers->size());
    spec.config.cost.map_cpu_per_byte = 2e-8;
    auto snapshot = std::make_shared<const CenterMatrix>(*centers);
    const double m = config.m;
    spec.mapper = [snapshot, m] { return std::make_unique<FuzzyMapper>(snapshot, m); };
    spec.reducer = [] { return std::make_unique<FuzzyReducer>(); };

    auto result = run_job(spec, records, config.base.num_splits);
    ++run.iterations;

    std::vector<Vec> next = *centers;
    double max_move = 0.0;
    for (const mapreduce::KV& kv : result.output) {
      const auto c = static_cast<std::size_t>(std::stoul(kv.key));
      auto [w, mean] = decode_partial(kv.value);
      if (w > 0.0) {
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
