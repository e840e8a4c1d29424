#include "ml/clustering.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "mapreduce/thread_pool.hpp"

namespace vhadoop::ml {

int nearest_center(const Vec& point, const std::vector<Vec>& centers) {
  if (centers.empty()) throw std::invalid_argument("nearest_center: no centers");
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const double d = squared_euclidean(point, centers[c]);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

PointMatrix::PointMatrix(std::span<const Vec> points) {
  data_.reserve(points.empty() ? 0 : points.size() * points[0].size());
  for (const Vec& p : points) push(p);
}

void PointMatrix::push(std::span<const double> point) {
  if (rows_ == 0) cols_ = point.size();
  if (point.size() != cols_) throw std::invalid_argument("dimension mismatch");
  data_.insert(data_.end(), point.begin(), point.end());
  ++rows_;
}

int nearest_center(std::span<const double> point, const PointMatrix& centers) {
  if (centers.rows() == 0) throw std::invalid_argument("nearest_center: no centers");
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    const double d = squared_euclidean(point, centers.row(c));
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

mapreduce::RunJob job_runner(const ClusteringConfig& config) {
  if (config.run_job) return config.run_job;
  return [runner = mapreduce::LocalJobRunner(config.threads)](
             const mapreduce::JobSpec& spec, std::span<const mapreduce::KV> input,
             int num_splits) { return runner.run(spec, input, num_splits); };
}

std::vector<int> assign_nearest(const Dataset& data, const std::vector<Vec>& centers,
                                unsigned threads) {
  // One pool index per block: a point's scan costs tens of nanoseconds, a
  // contended claim on the pool's counters about half a microsecond.
  constexpr std::size_t kBlock = 256;
  const PointMatrix flat(centers);
  const std::size_t n = data.size();
  std::vector<int> assignments(n);
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  mapreduce::WorkerPool::shared(threads).parallel_for(blocks, [&](std::size_t b) {
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    for (std::size_t i = b * kBlock; i < end; ++i) {
      assignments[i] = nearest_center(data.points[i], flat);
    }
  });
  return assignments;
}

double total_cost(const Dataset& data, const std::vector<Vec>& centers) {
  double cost = 0.0;
  for (const Vec& p : data.points) {
    cost += squared_euclidean(p, centers[static_cast<std::size_t>(nearest_center(p, centers))]);
  }
  return cost;
}

}  // namespace vhadoop::ml
