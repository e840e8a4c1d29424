#include "ml/dirichlet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "sim/rng.hpp"

namespace vhadoop::ml {

namespace {

/// The parts of one model's log weight that do not depend on the point:
/// its log mixing weight and the variance and normalizer of its spherical
/// Gaussian density (up to the shared 2*pi constant).
struct ModelTerms {
  std::span<const double> mean;  ///< views the snapshot's DirichletModel::mean
  double log_mix;
  double var;
  double log_norm;
};

std::vector<ModelTerms> model_terms(const std::vector<DirichletModel>& models) {
  std::vector<ModelTerms> terms;
  terms.reserve(models.size());
  for (const DirichletModel& m : models) {
    const double var = std::max(1e-6, m.stddev * m.stddev);
    terms.push_back({m.mean, std::log(std::max(1e-12, m.mixture)), var,
                     0.5 * static_cast<double>(m.mean.size()) * std::log(var)});
  }
  return terms;
}

/// Posterior over models for x, written into caller-owned `logp` (the
/// mapper calls this once per record; no allocation in the steady state).
void posterior_into(std::span<const double> x, const std::vector<ModelTerms>& terms,
                    Vec& logp) {
  logp.resize(terms.size());
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < terms.size(); ++j) {
    const ModelTerms& t = terms[j];
    const double d2 = squared_euclidean(x, t.mean);
    logp[j] = t.log_mix + (-0.5 * d2 / t.var - t.log_norm);
    best = std::max(best, logp[j]);
  }
  double z = 0.0;
  for (double& lp : logp) {
    lp = std::exp(lp - best);
    z += lp;
  }
  for (double& lp : logp) lp /= z;
}

/// Partial statistics emitted per (model, split): [count, sum|x|^2, sum...].
std::string encode_stats(double count, double sumsq, std::span<const double> sum) {
  std::string out((sum.size() + 2) * sizeof(double), '\0');
  std::memcpy(out.data(), &count, sizeof(double));
  std::memcpy(out.data() + sizeof(double), &sumsq, sizeof(double));
  if (!sum.empty()) {
    std::memcpy(out.data() + 2 * sizeof(double), sum.data(), sum.size() * sizeof(double));
  }
  return out;
}

struct Stats {
  double count = 0.0;
  double sumsq = 0.0;
  Vec sum;
};

Stats decode_stats(std::string_view s) {
  Vec payload = mapreduce::decode_vec(s);
  Stats st;
  if (payload.size() >= 2) {
    st.count = payload[0];
    st.sumsq = payload[1];
    st.sum.assign(payload.begin() + 2, payload.end());
  }
  return st;
}

double norm_sq(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

class DirichletMapper : public mapreduce::Mapper {
 public:
  DirichletMapper(std::shared_ptr<const std::vector<DirichletModel>> models, int iteration)
      : models_(std::move(models)), terms_(model_terms(*models_)), iteration_(iteration),
        counts_(models_->size(), 0.0), sumsqs_(models_->size(), 0.0) {}

  void map(std::string_view key, std::string_view value, mapreduce::Context&) override {
    const auto x = mapreduce::decode_vec_view(value, scratch_);
    if (sums_.empty()) {
      dim_ = x.size();
      sums_.assign(models_->size() * dim_, 0.0);  // row-major [model][dim]
    }
    posterior_into(x, terms_, p_);
    // Gibbs assignment, deterministically seeded by (record, iteration) so
    // the sampling is independent of split layout and thread schedule.
    sim::Rng rng(mapreduce::stable_hash(key) * 0x9e3779b97f4a7c15ULL +
                 static_cast<std::uint64_t>(iteration_));
    const double u = rng.uniform();
    double acc = 0.0;
    std::size_t j = p_.size() - 1;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      acc += p_[i];
      if (u <= acc) {
        j = i;
        break;
      }
    }
    counts_[j] += 1.0;
    sumsqs_[j] += norm_sq(x);
    double* sum = sums_.data() + j * dim_;
    for (std::size_t i = 0; i < x.size(); ++i) sum[i] += x[i];
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (std::size_t j = 0; j < counts_.size(); ++j) {
      if (counts_[j] > 0.0) {
        ctx.emit(std::to_string(j),
                 encode_stats(counts_[j], sumsqs_[j], {sums_.data() + j * dim_, dim_}));
      }
    }
  }

 private:
  std::shared_ptr<const std::vector<DirichletModel>> models_;
  std::vector<ModelTerms> terms_;  // views into *models_
  int iteration_;
  std::vector<double> counts_;
  std::vector<double> sumsqs_;
  std::vector<double> sums_;
  std::size_t dim_ = 0;
  std::vector<double> scratch_;
  Vec p_;
};

class DirichletReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    double count = 0.0, sumsq = 0.0;
    sum_.clear();
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      if (payload.size() < 2) continue;
      count += payload[0];
      sumsq += payload[1];
      add_in_place(sum_, payload.subspan(2));
    }
    ctx.emit(key, encode_stats(count, sumsq, sum_));
  }

 private:
  Vec sum_;
  std::vector<double> scratch_;
};

}  // namespace

DirichletRun dirichlet_cluster(const Dataset& data, const DirichletConfig& config) {
  if (data.size() == 0) throw std::invalid_argument("dirichlet: empty dataset");
  if (config.k < 1) throw std::invalid_argument("dirichlet: k must be >= 1");
  sim::Rng rng(4242);
  const std::size_t dim = data.dim();

  // Initialize: means from random data points, stddev from a coarse data
  // scale estimate, uniform mixture.
  auto models = std::make_shared<std::vector<DirichletModel>>();
  double scale = 0.0;
  for (int s = 0; s < 32; ++s) {
    const Vec& a = data.points[rng.uniform_int(data.size())];
    const Vec& b = data.points[rng.uniform_int(data.size())];
    scale += euclidean(a, b);
  }
  scale = std::max(1e-3, scale / 32.0);
  for (int j = 0; j < config.k; ++j) {
    DirichletModel m;
    m.mixture = 1.0 / config.k;
    m.mean = data.points[rng.uniform_int(data.size())];
    m.stddev = scale;
    models->push_back(std::move(m));
  }

  const mapreduce::RunJob run_job = job_runner(config.base);
  const auto records = to_records(data);

  DirichletRun run;
  run.algorithm = "dirichlet";

  const double n = static_cast<double>(data.size());
  for (int iter = 0; iter < config.base.max_iterations; ++iter) {
    mapreduce::JobSpec spec;
    spec.config.name = "dirichlet-iter" + std::to_string(iter);
    spec.config.num_reduces = config.base.num_reduces;
    spec.config.cost.map_cpu_per_record = 1.4e-5 * static_cast<double>(config.k);
    spec.config.cost.map_cpu_per_byte = 2e-8;
    auto snapshot = models;
    spec.mapper = [snapshot, iter] { return std::make_unique<DirichletMapper>(snapshot, iter); };
    spec.reducer = [] { return std::make_unique<DirichletReducer>(); };

    auto result = run_job(spec, records, config.base.num_splits);
    ++run.iterations;

    auto next = std::make_shared<std::vector<DirichletModel>>(*models);
    for (auto& m : *next) m.count = 0.0;
    for (const mapreduce::KV& kv : result.output) {
      const auto j = static_cast<std::size_t>(std::stoul(kv.key));
      const Stats st = decode_stats(kv.value);
      DirichletModel& m = (*next)[j];
      m.count = st.count;
      if (st.count > 0.0) {
        m.mean = mean_of(st.sum, st.count);
        const double var =
            std::max(1e-6, (st.sumsq / st.count - norm_sq(m.mean)) / static_cast<double>(dim));
        m.stddev = std::sqrt(var);
      }
    }
    // Dirichlet-posterior mixture (expectation form): occupied models grow,
    // empty models retain alpha/k mass to catch new structure.
    for (auto& m : *next) {
      m.mixture = (m.count + config.alpha / config.k) / (n + config.alpha);
    }

    run.jobs.push_back(std::move(result));
    models = std::move(next);
    std::vector<Vec> iter_centers;
    for (const auto& m : *models) {
      if (m.count > 0.0) iter_centers.push_back(m.mean);
    }
    run.iteration_centers.push_back(std::move(iter_centers));
  }

  run.models = *models;
  for (const auto& m : *models) {
    if (m.count > 0.0) run.centers.push_back(m.mean);
  }
  // MAP assignment against the final mixture.
  const std::vector<ModelTerms> terms = model_terms(*models);
  Vec post;
  run.assignments.reserve(data.size());
  for (const Vec& p : data.points) {
    posterior_into(p, terms, post);
    run.assignments.push_back(static_cast<int>(
        std::distance(post.begin(), std::max_element(post.begin(), post.end()))));
  }
  return run;
}

}  // namespace vhadoop::ml
