#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace vhadoop::ml {

/// Dense feature vector. The clustering algorithms are dimension-agnostic;
/// the paper's datasets are 60-d (control charts) and 2-d (display).
using Vec = std::vector<double>;

inline void check_same_dim(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dimension mismatch");
}

inline double squared_euclidean(std::span<const double> a, std::span<const double> b) {
  check_same_dim(a, b);
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

inline double euclidean(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_euclidean(a, b));
}

inline void add_in_place(Vec& acc, std::span<const double> x) {
  if (acc.empty()) acc.assign(x.begin(), x.end());
  else {
    check_same_dim(acc, x);
    for (std::size_t i = 0; i < x.size(); ++i) acc[i] += x[i];
  }
}

inline void scale_in_place(Vec& v, double s) {
  for (double& x : v) x *= s;
}

/// Mean of per-cluster accumulated sum and count.
inline Vec mean_of(Vec sum, double count) {
  if (count > 0.0) scale_in_place(sum, 1.0 / count);
  return sum;
}

}  // namespace vhadoop::ml
