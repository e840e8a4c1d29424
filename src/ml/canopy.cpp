#include "ml/canopy.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace vhadoop::ml {

namespace {

/// T1 >= T2 >= 0; NaN fails every comparison, so it is rejected too.
void check_thresholds(double t1, double t2) {
  if (!(t2 >= 0.0 && t1 >= t2)) throw std::invalid_argument("canopy: need T1 >= T2 >= 0");
}

/// The canopy kernel: the rows of `points` kept as canopy centers, in scan
/// order. A row within T2 of a kept center is strongly bound to it and
/// spawns no canopy of its own.
std::vector<std::size_t> canopy_select(const PointMatrix& points, double t2) {
  const double t2_sq = t2 * t2;
  std::vector<std::size_t> centers;
  for (std::size_t r = 0; r < points.rows(); ++r) {
    const auto p = points.row(r);
    const bool strongly_bound = std::any_of(centers.begin(), centers.end(), [&](std::size_t c) {
      return squared_euclidean(p, points.row(c)) <= t2_sq;
    });
    if (!strongly_bound) centers.push_back(r);
  }
  return centers;
}

class CanopyMapper : public mapreduce::Mapper {
 public:
  explicit CanopyMapper(double t2) : t2_(t2) {}

  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    points_.push(mapreduce::decode_vec_view(value, scratch_));
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (const std::size_t r : canopy_select(points_, t2_)) {
      ctx.emit("centroid", mapreduce::encode_vec(points_.row(r)));
    }
  }

 private:
  double t2_;
  PointMatrix points_;  // the split's points
  std::vector<double> scratch_;
};

class CanopyReducer : public mapreduce::Reducer {
 public:
  explicit CanopyReducer(double t2) : t2_(t2) {}

  void reduce(std::string_view, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    PointMatrix local;  // every mapper's local centers
    for (const std::string_view v : values) local.push(mapreduce::decode_vec_view(v, scratch_));
    int i = 0;
    for (const std::size_t r : canopy_select(local, t2_)) {
      ctx.emit("canopy-" + std::to_string(i++), mapreduce::encode_vec(local.row(r)));
    }
  }

 private:
  double t2_;
  std::vector<double> scratch_;
};

}  // namespace

std::vector<Vec> canopy_centers(std::span<const Vec> points, double t1, double t2) {
  check_thresholds(t1, t2);
  const PointMatrix flat(points);
  std::vector<Vec> centers;
  for (const std::size_t r : canopy_select(flat, t2)) {
    const auto c = flat.row(r);
    centers.emplace_back(c.begin(), c.end());
  }
  return centers;
}

ClusteringRun canopy_cluster(const Dataset& data, const CanopyConfig& config) {
  check_thresholds(config.t1, config.t2);
  mapreduce::JobSpec spec;
  spec.config.name = "canopy";
  spec.config.num_reduces = 1;  // all local centers meet in one reducer
  spec.config.cost.map_cpu_per_record = 1.2e-5;  // distance scans
  spec.config.cost.map_cpu_per_byte = 2e-8;
  const double t2 = config.t2;
  spec.mapper = [t2] { return std::make_unique<CanopyMapper>(t2); };
  spec.reducer = [t2] { return std::make_unique<CanopyReducer>(t2); };

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
