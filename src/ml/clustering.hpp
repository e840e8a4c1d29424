#pragma once

#include <string>
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

/// Row-major flat center storage: one contiguous buffer instead of k
/// separately heap-allocated Vecs, so a nearest-center scan walks memory
/// linearly (the hot loop of every k-means-family iteration).
class CenterMatrix {
 public:
  CenterMatrix() = default;
  explicit CenterMatrix(const std::vector<Vec>& centers);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::span<const double> row(std::size_t i) const { return {data_.data() + i * cols_, cols_}; }

 private:
  std::vector<double> data_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Nearest-center index against flat row-major centers; identical distance
/// arithmetic (and therefore identical ties/results) to the Vec overload.
int nearest_center(std::span<const double> point, const CenterMatrix& centers);

/// Final O(n·k) assignment pass, parallelized over the process-wide pool
/// for `threads` workers (0 = default), the one the runners borrow. Each
/// point's assignment is computed independently into its own slot, so the
/// result is identical for every thread count.
std::vector<int> assign_nearest(const Dataset& data, const std::vector<Vec>& centers,
                                unsigned threads);

}  // namespace vhadoop::ml
