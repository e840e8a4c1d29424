#include "ml/canopy.hpp"

#include <memory>
#include <stdexcept>

namespace vhadoop::ml {

std::vector<Vec> canopy_centers(std::span<const Vec> points, double t1, double t2) {
  if (t1 < t2) throw std::invalid_argument("canopy: T1 must be >= T2");
  std::vector<Vec> centers;
  const double t2_sq = t2 * t2;
  for (const Vec& p : points) {
    bool strongly_bound = false;
    for (const Vec& c : centers) {
      if (squared_euclidean(p, c) <= t2_sq) {
        strongly_bound = true;
        break;
      }
    }
    if (!strongly_bound) centers.push_back(p);
  }
  return centers;
}

namespace {

/// Canopy selection over row-major flat points: returns the indices of the
/// rows kept as centers. Same scan order and distance test as
/// `canopy_centers`, but every candidate-vs-center distance walks one
/// contiguous buffer.
std::vector<std::size_t> canopy_select_flat(const std::vector<double>& pts, std::size_t dim,
                                            std::size_t n, double t1, double t2) {
  if (t1 < t2) throw std::invalid_argument("canopy: T1 must be >= T2");
  std::vector<std::size_t> centers;
  const double t2_sq = t2 * t2;
  for (std::size_t r = 0; r < n; ++r) {
    const std::span<const double> p{pts.data() + r * dim, dim};
    bool strongly_bound = false;
    for (std::size_t c : centers) {
      if (squared_euclidean(p, {pts.data() + c * dim, dim}) <= t2_sq) {
        strongly_bound = true;
        break;
      }
    }
    if (!strongly_bound) centers.push_back(r);
  }
  return centers;
}

class CanopyMapper : public mapreduce::Mapper {
 public:
  CanopyMapper(double t1, double t2) : t1_(t1), t2_(t2) {}

  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    const auto p = mapreduce::decode_vec_view(value, scratch_);
    if (n_ == 0) dim_ = p.size();
    ++n_;
    points_.insert(points_.end(), p.begin(), p.end());
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (std::size_t r : canopy_select_flat(points_, dim_, n_, t1_, t2_)) {
      ctx.emit("centroid", mapreduce::encode_vec({points_.data() + r * dim_, dim_}));
    }
  }

 private:
  double t1_, t2_;
  std::vector<double> points_;  // row-major buffered split points
  std::size_t dim_ = 0;
  std::size_t n_ = 0;
  std::vector<double> scratch_;
};

class CanopyReducer : public mapreduce::Reducer {
 public:
  CanopyReducer(double t1, double t2) : t1_(t1), t2_(t2) {}

  void reduce(std::string_view, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    std::vector<double> local;
    std::size_t dim = 0, n = 0;
    for (auto v : values) {
      const auto c = mapreduce::decode_vec_view(v, scratch_);
      if (n == 0) dim = c.size();
      ++n;
      local.insert(local.end(), c.begin(), c.end());
    }
    int i = 0;
    for (std::size_t r : canopy_select_flat(local, dim, n, t1_, t2_)) {
      ctx.emit("canopy-" + std::to_string(i++), mapreduce::encode_vec({local.data() + r * dim, dim}));
    }
  }

 private:
  double t1_, t2_;
  std::vector<double> scratch_;
};

}  // namespace

ClusteringRun canopy_cluster(const Dataset& data, const CanopyConfig& config) {
  mapreduce::JobSpec spec;
  spec.config.name = "canopy";
  spec.config.num_reduces = 1;  // all local centers meet in one reducer
  spec.config.cost.map_cpu_per_record = 1.2e-5;  // distance scans
  spec.config.cost.map_cpu_per_byte = 2e-8;
  spec.mapper = [&config] { return std::make_unique<CanopyMapper>(config.t1, config.t2); };
  spec.reducer = [&config] { return std::make_unique<CanopyReducer>(config.t1, config.t2); };

  const mapreduce::RunJob run_job = job_runner(config.base);
  const auto records = to_records(data);
  ClusteringRun run;
  run.algorithm = "canopy";
  run.jobs.push_back(run_job(spec, records, config.base.num_splits));
  run.iterations = 1;

  for (const mapreduce::KV& kv : run.jobs[0].output) {
    run.centers.push_back(mapreduce::decode_vec(kv.value));
  }
  run.iteration_centers.push_back(run.centers);
  run.assignments = assign_nearest(data, run.centers, config.base.threads);
  return run;
}

}  // namespace vhadoop::ml
