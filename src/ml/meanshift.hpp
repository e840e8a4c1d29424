#pragma once

#include "ml/clustering.hpp"

namespace vhadoop::ml {

/// Mean-shift clustering via canopies (paper Sec. IV-A, Mahout
/// MeanShiftCanopyDriver): every point starts as a weighted canopy; each
/// iteration's mapper shifts every canopy toward the weighted mean of the
/// canopies within distance T1 of it, and the reducer merges canopies that
/// land within T2 of each other. Clusters of arbitrary shape emerge without
/// an a-priori k; iteration stops when no canopy moves more than the delta.
struct MeanShiftConfig {
  double t1 = 3.0;  ///< attraction window
  double t2 = 1.0;  ///< merge radius
  ClusteringConfig base;
};

/// A NaN or negative threshold throws std::invalid_argument before the
/// first job; so do points of different dimensions, from the job.
ClusteringRun meanshift_cluster(const Dataset& data, const MeanShiftConfig& config);

}  // namespace vhadoop::ml
