#pragma once

#include <span>

#include "ml/clustering.hpp"

namespace vhadoop::ml {

/// Canopy clustering (paper Sec. IV-A): a single cheap pass that picks
/// canopy centers using two thresholds T1 > T2. Mahout's MapReduce form:
/// each mapper builds canopies over its split and emits the local centers;
/// a single reducer re-canopies the centers into the final set. Often used
/// to seed k-means.
struct CanopyConfig {
  double t1 = 3.0;  ///< loose threshold: points within T1 join a canopy
  double t2 = 1.5;  ///< tight threshold: points within T2 spawn no new canopy
  ClusteringConfig base;
};

/// Canopy selection over `points`, sequentially. canopy_cluster's mapper
/// (over its split's points) and reducer (over the mappers' local centers)
/// run the same kernel, each over its points copied into a PointMatrix.
/// Unless T1 >= T2 >= 0 (NaN fails), or if the points differ in dimension,
/// throws std::invalid_argument.
std::vector<Vec> canopy_centers(std::span<const Vec> points, double t1, double t2);

/// Run the one-job MapReduce canopy driver and assign every point to its
/// nearest canopy. Thresholds are checked as in canopy_centers, before the
/// job runs.
ClusteringRun canopy_cluster(const Dataset& data, const CanopyConfig& config);

}  // namespace vhadoop::ml
