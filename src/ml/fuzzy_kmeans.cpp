#include "ml/fuzzy_kmeans.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "ml/kmeans.hpp"

namespace vhadoop::ml {

namespace {

/// m must be a number above 1; `m <= 1.0` alone would let NaN through.
void check_fuzziness(double m) {
  if (!(m > 1.0)) throw std::invalid_argument("fuzzy k-means: m must be > 1");
}

/// Shared core of the membership computation, writing into caller-owned
/// scratch (`dist`, `u`) so the mapper's hot loop does not allocate.
void memberships_into(std::span<const double> point, const PointMatrix& centers, double m,
                      Vec& dist, Vec& u) {
  const double exponent = 2.0 / (m - 1.0);
  const std::size_t k = centers.rows();
  dist.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    dist[j] = euclidean(point, centers.row(j));
  }
  u.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    // vlint: allow(no-exact-float-compare) audited PR 8: coincident-center guard; euclidean() of identical points is exactly zero
    if (dist[j] == 0.0) {
      // Point coincides with a center: full membership there.
      u.assign(k, 0.0);
      u[j] = 1.0;
      return;
    }
    // The own-center term is pow(d / d, e): exactly 1 for a finite non-zero
    // d, since d / d is exactly 1 and pow(1, e) is 1. NaN and infinite
    // distances still go through pow.
    const bool own_term_is_one = std::isfinite(dist[j]);
    double denom = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      denom += kk == j && own_term_is_one ? 1.0 : std::pow(dist[j] / dist[kk], exponent);
    }
    u[j] = 1.0 / denom;
  }
}

/// Soft assignment: a point pulls every center j with weight u_j^m.
class FuzzyMapper final : public CenterPartialsMapper {
 public:
  FuzzyMapper(std::shared_ptr<const PointMatrix> centers, double m)
      : CenterPartialsMapper(std::move(centers)), m_(m) {}

 protected:
  void weigh(std::span<const double> point) override {
    memberships_into(point, centers(), m_, dist_, u_);
    for (std::size_t j = 0; j < u_.size(); ++j) add(j, point, std::pow(u_[j], m_));
  }

 private:
  double m_;
  Vec dist_, u_;
};

}  // namespace

Vec memberships(const Vec& point, const std::vector<Vec>& centers, double m) {
  check_fuzziness(m);
  const PointMatrix flat(centers);
  Vec dist, u;
  memberships_into(point, flat, m, dist, u);
  return u;
}

ClusteringRun fuzzy_kmeans_cluster(const Dataset& data, const FuzzyKMeansConfig& config,
                                   std::vector<Vec> initial_centers) {
  check_fuzziness(config.m);
  if (initial_centers.empty()) initial_centers = seed_centers(data, config.k);
  const double k = static_cast<double>(initial_centers.size());
  return iterate_centers(data, config.base, std::move(initial_centers), "fuzzykmeans",
                         {.map_cpu_per_record = 9e-6 * k, .map_cpu_per_byte = 2e-8},
                         [m = config.m](std::shared_ptr<const PointMatrix> centers) {
                           return std::make_unique<FuzzyMapper>(std::move(centers), m);
                         });
}

}  // namespace vhadoop::ml
