#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/local_runner.hpp"
#include "ml/dataset.hpp"
#include "ml/vector.hpp"

namespace vhadoop::ml {

/// Common result of every clustering driver: the final model, per-point
/// assignments where the algorithm defines them, per-iteration center
/// snapshots (Fig. 8 renders these), and the measured MapReduce jobs
/// (one per iteration) for replay on the simulated virtual cluster.
struct ClusteringRun {
  std::string algorithm;
  std::vector<Vec> centers;
  std::vector<int> assignments;                 // -1 where undefined
  std::vector<std::vector<Vec>> iteration_centers;
  std::vector<mapreduce::JobResult> jobs;
  int iterations = 0;
};

/// Shared knobs for the iterative drivers.
struct ClusteringConfig {
  int num_splits = 4;      ///< map tasks per job (block count of the input)
  int num_reduces = 1;
  int max_iterations = 10;
  double convergence_delta = 1e-3;  ///< max center movement to stop
  unsigned threads = 0;             ///< 0 = hardware concurrency
  /// Runs every MapReduce job of the driver call; empty = one
  /// LocalJobRunner(threads) per call. bench/ml_scaling passes the runner's
  /// reference oracle here.
  mapreduce::RunJob run_job;
};

/// The job runner one driver call uses: `config.run_job` when set, else a
/// fresh LocalJobRunner(config.threads).
mapreduce::RunJob job_runner(const ClusteringConfig& config);

/// Sum of squared distances from each point to its nearest center — the
/// objective k-means style algorithms must not increase (tests rely on it).
double total_cost(const Dataset& data, const std::vector<Vec>& centers);

/// Nearest-center index (squared Euclidean).
int nearest_center(const Vec& point, const std::vector<Vec>& centers);

/// Row-major point store: rows of one dimension in one contiguous buffer
/// instead of separately heap-allocated Vecs, so a scan over them walks
/// memory linearly. It holds a k-means-family iteration's centers, the
/// points canopy selects from and MeanShift's canopy centers. The first
/// row fixes the dimension.
class PointMatrix {
 public:
  PointMatrix() = default;
  explicit PointMatrix(std::span<const Vec> points);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::span<const double> row(std::size_t i) const { return {data_.data() + i * cols_, cols_}; }
  std::span<double> row(std::size_t i) { return {data_.data() + i * cols_, cols_}; }

  /// Appends a row. A row of another dimension would misalign every later
  /// one, so it throws std::invalid_argument("dimension mismatch").
  void push(std::span<const double> point);

 private:
  std::vector<double> data_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Nearest-center index against flat row-major centers; identical distance
/// arithmetic (and therefore identical ties/results) to the Vec overload.
int nearest_center(std::span<const double> point, const PointMatrix& centers);

/// The value payload of a weighted vector, [weight, v...]: the k-means
/// family's per-center partials and MeanShift's canopies travel in it.
/// The layout is encode_vec's, written with no intermediate vector.
inline std::string encode_weighted(double weight, std::span<const double> v) {
  std::string out((v.size() + 1) * sizeof(double), '\0');
  std::memcpy(out.data(), &weight, sizeof(double));
  if (!v.empty()) std::memcpy(out.data() + sizeof(double), v.data(), v.size() * sizeof(double));
  return out;
}

/// A decoded [weight, v...] payload; `v` views the payload or the
/// decoder's scratch.
struct Weighted {
  double weight = 0.0;
  std::span<const double> v;
};

/// Reads an encode_weighted payload in place under decode_vec_view's
/// rules: `scratch` holds the copy of an unaligned one. An empty payload
/// reads as weight 0 and an empty v.
inline Weighted decode_weighted(std::string_view s, std::vector<double>& scratch) {
  const std::span<const double> payload = mapreduce::decode_vec_view(s, scratch);
  if (payload.empty()) return {};
  return {payload[0], payload.subspan(1)};
}

/// Final O(n·k) assignment pass, parallelized over the process-wide pool
/// for `threads` workers (0 = default), the one the runners borrow. Each
/// point's assignment is computed independently into its own slot, so the
/// result is identical for every thread count.
std::vector<int> assign_nearest(const Dataset& data, const std::vector<Vec>& centers,
                                unsigned threads);

}  // namespace vhadoop::ml
