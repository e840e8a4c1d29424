#pragma once

#include "ml/clustering.hpp"

namespace vhadoop::ml {

/// Fuzzy k-means (paper Sec. IV-A, Mahout FuzzyKMeansDriver): soft
/// clustering where point i belongs to cluster j with membership
/// u_ij = 1 / sum_k (d_ij / d_ik)^(2/(m-1)). Each iteration's mapper emits
/// membership-weighted partial sums to *every* cluster; the reducer forms
/// the new centers as weighted means. It runs k-means's iteration loop
/// (`iterate_centers`, kmeans.hpp) with its own per-point weighting.
struct FuzzyKMeansConfig {
  int k = 6;
  /// Fuzziness exponent m > 1 (Mahout default 2.0; m -> 1 approaches hard
  /// k-means). Anything else, NaN included, throws std::invalid_argument
  /// before the first job.
  double m = 2.0;
  ClusteringConfig base;
};

/// Membership row of `point` against `centers` (sums to 1).
Vec memberships(const Vec& point, const std::vector<Vec>& centers, double m);

ClusteringRun fuzzy_kmeans_cluster(const Dataset& data, const FuzzyKMeansConfig& config,
                                   std::vector<Vec> initial_centers = {});

}  // namespace vhadoop::ml
