#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/clustering.hpp"

namespace vhadoop::ml {

/// MapReduce k-means (paper Sec. IV-A, Mahout KMeansDriver): per iteration
/// one job — mappers assign points to the nearest centroid and emit one
/// partial (count, sum) per cluster, the reducer forms new centroids; the
/// driver loops until centroids move less than the convergence delta or
/// max iterations is hit.
struct KMeansConfig {
  int k = 6;
  ClusteringConfig base;
};

/// Seed centers: the first k distinct points (Mahout's RandomSeedGenerator
/// with a fixed seed is equivalent for our deterministic datasets).
std::vector<Vec> seed_centers(const Dataset& data, int k, std::uint64_t seed = 31);

ClusteringRun kmeans_cluster(const Dataset& data, const KMeansConfig& config,
                             std::vector<Vec> initial_centers = {});

// --- the k-means family's shared parts (k-means, fuzzy k-means) -------------

/// Map side of a k-means-family iteration over one center snapshot. A
/// driver's subclass supplies `weigh`, which adds each point to per-center
/// (weight, weighted sum) partials through `add`; cleanup emits one
/// encode_weighted partial per center of positive weight. This is
/// in-mapper combining: one record per center and task, what a combiner
/// would leave.
class CenterPartialsMapper : public mapreduce::Mapper {
 public:
  explicit CenterPartialsMapper(std::shared_ptr<const PointMatrix> centers);

  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) final;
  void cleanup(mapreduce::Context& ctx) final;

 protected:
  /// Adds one point to the partials of the centers it pulls toward.
  virtual void weigh(std::span<const double> point) = 0;

  const PointMatrix& centers() const { return *centers_; }
  /// Adds `point`, weighted by w, to center c's partial; w <= 0 adds nothing.
  void add(std::size_t c, std::span<const double> point, double w);

 private:
  std::shared_ptr<const PointMatrix> centers_;
  std::vector<double> sums_;  // row-major [center][dim] weighted sums
  std::vector<double> weights_;
  std::vector<double> scratch_;
};

/// Makes one map task's mapper over an iteration's center snapshot.
using CenterMapperFactory =
    std::function<std::unique_ptr<CenterPartialsMapper>(std::shared_ptr<const PointMatrix>)>;

/// The k-means family's iteration loop (Mahout's KMeansDriver and
/// FuzzyKMeansDriver): job i, "<algorithm>-iter<i>", maps with `mapper`
/// at `cost`, and its reducer makes each center the weighted mean of its
/// partials; a center no partial reached stays where it is. Stops when no
/// center moves convergence_delta or more, or after max_iterations, then
/// assigns each point to its nearest center.
ClusteringRun iterate_centers(const Dataset& data, const ClusteringConfig& base,
                              std::vector<Vec> centers, const std::string& algorithm,
                              const mapreduce::CostModel& cost,
                              const CenterMapperFactory& mapper);

}  // namespace vhadoop::ml
