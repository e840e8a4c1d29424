#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"
#include "sim/rng.hpp"

namespace vhadoop::ml {
namespace {

Dataset tight_blobs() {
  // Three well-separated tight blobs: every sane clustering must find them.
  Dataset data;
  sim::Rng rng(1);
  const Vec centers[] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 40; ++i) {
      data.points.push_back(
          {centers[c][0] + rng.normal(0, 0.3), centers[c][1] + rng.normal(0, 0.3)});
      data.labels.push_back(c);
    }
  }
  return data;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A job runner for drivers that must reject their parameters first.
mapreduce::JobResult no_job(const mapreduce::JobSpec& spec, std::span<const mapreduce::KV>, int) {
  ADD_FAILURE() << "job " << spec.config.name << " ran";
  return {};
}

/// Fraction of pairs (same-label vs same-cluster) that agree — Rand index.
double rand_index(const std::vector<int>& labels, const std::vector<int>& assign) {
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = i + 1; j < labels.size(); ++j) {
      const bool same_label = labels[i] == labels[j];
      const bool same_cluster = assign[i] == assign[j];
      agree += (same_label == same_cluster);
      ++total;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

// --- Canopy -------------------------------------------------------------------

TEST(Canopy, KernelCoversEveryPoint) {
  auto data = tight_blobs();
  auto centers = canopy_centers(data.points, 3.0, 1.5);
  EXPECT_GE(centers.size(), 3u);
  for (const Vec& p : data.points) {
    double best = 1e18;
    for (const Vec& c : centers) best = std::min(best, euclidean(p, c));
    EXPECT_LE(best, 3.0) << "point not covered by any canopy (T1)";
  }
  // No two canopy centers within T2 of each other.
  for (std::size_t i = 0; i < centers.size(); ++i) {
    for (std::size_t j = i + 1; j < centers.size(); ++j) {
      EXPECT_GT(euclidean(centers[i], centers[j]), 1.5);
    }
  }
}

TEST(Canopy, T1SmallerThanT2Throws) {
  auto data = tight_blobs();
  EXPECT_THROW(canopy_centers(data.points, 1.0, 2.0), std::invalid_argument);
  // A NaN or negative threshold is rejected too, and before the job runs.
  const struct {
    double t1, t2;
  } bad[] = {{1.0, 2.0}, {3.0, kNaN}, {kNaN, 1.5}, {kNaN, kNaN}, {3.0, -1.0}, {-1.0, -2.0}};
  for (const auto [t1, t2] : bad) {
    EXPECT_THROW(canopy_centers(data.points, t1, t2), std::invalid_argument) << t1 << " " << t2;
    EXPECT_THROW(canopy_cluster(data, {.t1 = t1, .t2 = t2, .base = {.run_job = no_job}}),
                 std::invalid_argument)
        << t1 << " " << t2;
  }
}

TEST(Canopy, RejectsPointsOfDifferentDimensions) {
  // In one split the mapper sees both dimensions; in two, the reducer does.
  Dataset data;
  data.points = {{0.0, 0.0, 0.0}, {1.0}, {2.0}};
  EXPECT_THROW(canopy_cluster(data, {.base = {.num_splits = 1}}), std::invalid_argument);
  EXPECT_THROW(canopy_centers(data.points, 3.0, 1.5), std::invalid_argument);
  data.points = {{0.0, 0.0}, {1.0, 1.0}, {2.0}, {3.0}};
  EXPECT_THROW(canopy_cluster(data, {.base = {.num_splits = 2}}), std::invalid_argument);
}

TEST(Canopy, MapReduceFindsThreeBlobs) {
  auto data = tight_blobs();
  auto run = canopy_cluster(data, {.t1 = 4.0, .t2 = 2.0, .base = {.num_splits = 4}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  EXPECT_EQ(run.jobs.size(), 1u);
  EXPECT_EQ(run.iterations, 1);
}

TEST(Canopy, SplitCountDoesNotChangeCoverage) {
  auto data = tight_blobs();
  for (int splits : {1, 2, 8}) {
    auto run = canopy_cluster(data, {.t1 = 4.0, .t2 = 2.0, .base = {.num_splits = splits}});
    EXPECT_EQ(run.centers.size(), 3u) << "splits=" << splits;
  }
}

// --- k-means -------------------------------------------------------------------

TEST(KMeans, RecoversBlobs) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 20}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  // Each blob center recovered to within noise.
  for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
    double best = 1e18;
    for (const Vec& c : run.centers) best = std::min(best, euclidean(c, expected));
    EXPECT_LT(best, 0.5);
  }
}

TEST(KMeans, ObjectiveNonIncreasingAcrossIterations) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 4, .base = {.num_splits = 3, .max_iterations = 15}});
  double prev = 1e300;
  for (const auto& centers : run.iteration_centers) {
    const double cost = total_cost(data, centers);
    EXPECT_LE(cost, prev * (1.0 + 1e-9));
    prev = cost;
  }
}

TEST(KMeans, ConvergesAndStops) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 2, .max_iterations = 50}});
  EXPECT_LT(run.iterations, 50);  // stopped on delta, not the cap
}

TEST(KMeans, SeededCentersComeFromData) {
  auto data = tight_blobs();
  auto seeds = seed_centers(data, 5, 7);
  EXPECT_EQ(seeds.size(), 5u);
  std::set<std::pair<double, double>> unique;
  for (const Vec& s : seeds) {
    EXPECT_NE(std::find(data.points.begin(), data.points.end(), s), data.points.end());
    unique.insert({s[0], s[1]});
  }
  EXPECT_EQ(unique.size(), 5u);  // distinct
  EXPECT_THROW(seed_centers(data, 0), std::invalid_argument);
  EXPECT_THROW(seed_centers(data, 10000), std::invalid_argument);
}

TEST(KMeans, SplitAndThreadInvariant) {
  auto data = tight_blobs();
  auto initial = seed_centers(data, 3, 11);
  auto a = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 1, .threads = 1}}, initial);
  auto b = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 6, .threads = 4}}, initial);
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (std::size_t c = 0; c < a.centers.size(); ++c) {
    EXPECT_LT(euclidean(a.centers[c], b.centers[c]), 1e-9)
        << "MapReduce decomposition changed the result";
  }
}

// --- fuzzy k-means ---------------------------------------------------------------

TEST(FuzzyKMeans, MembershipsSumToOne) {
  auto data = tight_blobs();
  auto centers = seed_centers(data, 3, 13);
  for (const Vec& p : data.points) {
    const Vec u = memberships(p, centers, 2.0);
    double sum = 0.0;
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0 + 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(FuzzyKMeans, PointOnCenterGetsFullMembership) {
  std::vector<Vec> centers{{0.0, 0.0}, {5.0, 5.0}};
  const Vec u = memberships(centers[1], centers, 2.0);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
  EXPECT_DOUBLE_EQ(u[0], 0.0);
}

TEST(FuzzyKMeans, InvalidFuzzinessThrows) {
  std::vector<Vec> centers{{0.0, 0.0}};
  auto data = tight_blobs();
  for (const double m : {1.0, 0.5, -2.0, kNaN}) {
    EXPECT_THROW(memberships(Vec{1.0, 1.0}, centers, m), std::invalid_argument) << "m=" << m;
    // The driver rejects m before its first job runs.
    EXPECT_THROW(fuzzy_kmeans_cluster(data, {.k = 3, .m = m, .base = {.run_job = no_job}}),
                 std::invalid_argument)
        << "m=" << m;
  }
}

TEST(FuzzyKMeans, RecoversBlobsSoftly) {
  auto data = tight_blobs();
  auto run = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 25}});
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
  for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
    double best = 1e18;
    for (const Vec& c : run.centers) best = std::min(best, euclidean(c, expected));
    EXPECT_LT(best, 0.6);
  }
}

TEST(FuzzyKMeans, HigherFuzzinessSoftensMemberships) {
  auto data = tight_blobs();
  auto centers = seed_centers(data, 3, 17);
  const Vec& p = data.points[0];
  const Vec crisp = memberships(p, centers, 1.5);
  const Vec soft = memberships(p, centers, 4.0);
  const double max_crisp = *std::max_element(crisp.begin(), crisp.end());
  const double max_soft = *std::max_element(soft.begin(), soft.end());
  EXPECT_GT(max_crisp, max_soft);
}

// --- mean shift -------------------------------------------------------------------

TEST(MeanShift, CollapsesBlobsToThreeCanopies) {
  auto data = tight_blobs();
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.0, .base = {.num_splits = 4, .max_iterations = 20}});
  EXPECT_EQ(run.centers.size(), 3u);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.99);
}

TEST(MeanShift, CanopyCountMonotonicallyShrinks) {
  auto data = tight_blobs();
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.0, .base = {.num_splits = 2, .max_iterations = 20}});
  std::size_t prev = data.size();
  for (const auto& centers : run.iteration_centers) {
    EXPECT_LE(centers.size(), prev);
    prev = centers.size();
  }
}

TEST(MeanShift, NoPriorKRequired) {
  // Five blobs: mean shift should find five without being told.
  Dataset data;
  sim::Rng rng(3);
  for (int c = 0; c < 5; ++c) {
    for (int i = 0; i < 25; ++i) {
      data.points.push_back({c * 8.0 + rng.normal(0, 0.25), rng.normal(0, 0.25)});
      data.labels.push_back(c);
    }
  }
  auto run = meanshift_cluster(
      data, {.t1 = 3.0, .t2 = 1.2, .base = {.num_splits = 3, .max_iterations = 25}});
  EXPECT_EQ(run.centers.size(), 5u);
}

TEST(MeanShift, NaNOrNegativeThresholdThrows) {
  auto data = tight_blobs();
  const struct {
    double t1, t2;
  } bad[] = {{kNaN, 1.0}, {3.0, kNaN}, {-1.0, 1.0}, {3.0, -1.0}};
  for (const auto [t1, t2] : bad) {
    EXPECT_THROW(meanshift_cluster(data, {.t1 = t1, .t2 = t2, .base = {.run_job = no_job}}),
                 std::invalid_argument)
        << t1 << " " << t2;
  }
}

TEST(MeanShift, RejectsPointsOfDifferentDimensions) {
  // In one split the mapper sees both dimensions; in two, the reducer does.
  Dataset data;
  data.points = {{0.0, 0.0, 0.0}, {1.0}, {2.0}};
  EXPECT_THROW(meanshift_cluster(data, {.base = {.num_splits = 1}}), std::invalid_argument);
  data.points = {{0.0, 0.0}, {1.0, 1.0}, {2.0}, {3.0}};
  EXPECT_THROW(meanshift_cluster(data, {.base = {.num_splits = 2}}), std::invalid_argument);
}

// --- dirichlet ---------------------------------------------------------------------

TEST(Dirichlet, CountsConserved) {
  auto data = tight_blobs();
  auto run = dirichlet_cluster(
      data, {.k = 8, .alpha = 1.0, .base = {.num_splits = 4, .max_iterations = 8}});
  double total = 0.0;
  for (const auto& m : run.models) total += m.count;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(data.size()));
  // Mixture is a distribution.
  double mix = 0.0;
  for (const auto& m : run.models) mix += m.mixture;
  EXPECT_NEAR(mix, 1.0, 1e-9);
}

TEST(Dirichlet, FindsTheBlobStructure) {
  auto data = tight_blobs();
  auto run = dirichlet_cluster(
      data, {.k = 10, .alpha = 1.0, .base = {.num_splits = 4, .max_iterations = 12}});
  // Occupied models must be near the true blob centers; dominant models
  // should cover all three blobs.
  int near_blobs = 0;
  for (const auto& m : run.models) {
    if (m.count < 15) continue;
    for (const Vec& expected : {Vec{0, 0}, Vec{10, 0}, Vec{0, 10}}) {
      if (euclidean(m.mean, expected) < 1.5) {
        ++near_blobs;
        break;
      }
    }
  }
  EXPECT_GE(near_blobs, 3);
  EXPECT_GT(rand_index(data.labels, run.assignments), 0.9);
}

TEST(Dirichlet, RejectsEmptyDatasetAndNoModels) {
  const DirichletConfig cfg{.k = 3, .alpha = 1.0, .base = {.num_splits = 2, .max_iterations = 2}};
  EXPECT_THROW(dirichlet_cluster(Dataset{}, cfg), std::invalid_argument);
  auto data = tight_blobs();
  for (int k : {0, -1}) {
    EXPECT_THROW(dirichlet_cluster(data, {.k = k, .base = cfg.base}), std::invalid_argument)
        << "k=" << k;
  }
}

TEST(Dirichlet, DeterministicAcrossRuns) {
  auto data = tight_blobs();
  DirichletConfig cfg{.k = 6, .alpha = 1.0, .base = {.num_splits = 3, .max_iterations = 5}};
  auto a = dirichlet_cluster(data, cfg);
  auto b = dirichlet_cluster(data, cfg);
  EXPECT_EQ(a.assignments, b.assignments);
}

// --- minhash -----------------------------------------------------------------------

TEST(MinHash, IdenticalPointsAlwaysCollide) {
  Dataset data;
  for (int i = 0; i < 10; ++i) data.points.push_back({1.0, 2.0, 3.0});
  data.labels.assign(10, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 6, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 1.0,
                                    .base = {.num_splits = 3}});
  ASSERT_FALSE(run.clusters.empty());
  // Some cluster must contain all ten points.
  bool found_all = false;
  for (const auto& [key, members] : run.clusters) {
    if (members.size() == 10) found_all = true;
  }
  EXPECT_TRUE(found_all);
}

TEST(MinHash, FarPointsRarelyCollide) {
  Dataset data;
  sim::Rng rng(5);
  for (int i = 0; i < 30; ++i) data.points.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1)});
  for (int i = 0; i < 30; ++i)
    data.points.push_back({1000.0 + rng.normal(0, 0.1), 1000.0 + rng.normal(0, 0.1)});
  data.labels.assign(60, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 8, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 0.5,
                                    .base = {.num_splits = 2}});
  for (const auto& [key, members] : run.clusters) {
    // No cluster mixes the two distant populations.
    bool lo = false, hi = false;
    for (std::int64_t id : members) {
      (id < 30 ? lo : hi) = true;
    }
    EXPECT_FALSE(lo && hi) << "cluster " << key << " spans distant blobs";
  }
}

TEST(MinHash, MinClusterSizeFiltersSingletons) {
  Dataset data;
  sim::Rng rng(6);
  // Scatter: every point in its own region.
  for (int i = 0; i < 20; ++i) data.points.push_back({i * 100.0, i * -50.0});
  data.labels.assign(20, 0);
  auto run = minhash_cluster(data, {.num_hash_functions = 6, .keygroups = 2,
                                    .min_cluster_size = 2, .bucket_width = 1.0,
                                    .base = {.num_splits = 2}});
  for (const auto& [key, members] : run.clusters) {
    EXPECT_GE(members.size(), 2u);
  }
}

TEST(MinHash, FeatureSetDiscretization) {
  auto s1 = feature_set({1.01, 2.49}, 1.0);
  auto s2 = feature_set({1.49, 2.01}, 1.0);  // same buckets
  EXPECT_EQ(s1, s2);
  auto s3 = feature_set({1.01, 3.01}, 1.0);
  EXPECT_NE(s1, s3);
}

// --- parallel assignment pass ---------------------------------------------------

TEST(AssignNearest, IndependentOfThreadCount) {
  const auto blobs = tight_blobs();
  const auto centers = seed_centers(blobs, 3, 77);
  // The blobs, then sizes around the pass's 256-point block: none, one
  // point, one block short of full, full, one point over, and four blocks.
  std::vector<Dataset> inputs{blobs};
  sim::Rng rng(78);
  for (std::size_t n : {0u, 1u, 255u, 256u, 257u, 1000u}) {
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
      data.points.push_back({rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)});
    }
    inputs.push_back(std::move(data));
  }
  for (const Dataset& data : inputs) {
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      const auto got = assign_nearest(data, centers, threads);
      ASSERT_EQ(got.size(), data.size()) << data.size() << " points, " << threads << " threads";
      // The flat-matrix scan agrees with the Vec-of-Vec overload.
      for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(got[i], nearest_center(data.points[i], centers))
            << data.size() << " points, " << threads << " threads, point " << i;
      }
    }
  }
}

TEST(KMeans, AssignmentsIndependentOfThreadCount) {
  auto data = tight_blobs();
  const auto init = seed_centers(data, 3, 42);
  const auto one = kmeans_cluster(
      data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 5, .threads = 1}}, init);
  const auto many = kmeans_cluster(
      data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 5, .threads = 8}}, init);
  EXPECT_EQ(one.assignments, many.assignments);
  EXPECT_EQ(one.centers, many.centers);
}

TEST(FuzzyKMeans, AssignmentsIndependentOfThreadCount) {
  auto data = tight_blobs();
  const auto init = seed_centers(data, 3, 42);
  const auto one = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 5, .threads = 1}},
      init);
  const auto many = fuzzy_kmeans_cluster(
      data, {.k = 3, .m = 2.0, .base = {.num_splits = 4, .max_iterations = 5, .threads = 8}},
      init);
  EXPECT_EQ(one.assignments, many.assignments);
  EXPECT_EQ(one.centers, many.centers);
}

// --- shared ClusteringRun contract ----------------------------------------------

TEST(ClusteringRun, JobsCarryProfilesForSimulation) {
  auto data = tight_blobs();
  auto run = kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 6}});
  ASSERT_FALSE(run.jobs.empty());
  for (const auto& job : run.jobs) {
    EXPECT_EQ(job.map_profiles.size(), 4u);
    std::int64_t records = 0;
    for (const auto& p : job.map_profiles) records += p.input_records;
    EXPECT_EQ(records, static_cast<std::int64_t>(data.size()));
    for (const auto& p : job.map_profiles) EXPECT_GT(p.cpu_seconds, 0.0);
  }
}

TEST(ClusteringRun, EveryDriverRunsItsJobsThroughRunJob) {
  // bench/ml_scaling hands the runner's reference oracle to each driver
  // through ClusteringConfig::run_job; a driver that built its own runner
  // instead would compare the optimized path with itself.
  const auto data = tight_blobs();
  const mapreduce::LocalJobRunner runner(2);
  std::size_t calls = 0;
  ClusteringConfig base{.num_splits = 2, .max_iterations = 3};
  base.run_job = [&](const mapreduce::JobSpec& spec, std::span<const mapreduce::KV> input,
                     int num_splits) {
    ++calls;
    return runner.run(spec, input, num_splits);
  };
  const std::vector<std::function<ClusteringRun()>> drivers = {
      [&] { return canopy_cluster(data, {.base = base}); },
      [&] { return kmeans_cluster(data, {.k = 3, .base = base}); },
      [&] { return fuzzy_kmeans_cluster(data, {.k = 3, .base = base}); },
      [&] { return meanshift_cluster(data, {.base = base}); },
      [&] { return dirichlet_cluster(data, {.k = 3, .base = base}); },
      [&] { return minhash_cluster(data, {.base = base}); },
  };
  for (const auto& driver : drivers) {
    calls = 0;
    const ClusteringRun run = driver();
    EXPECT_GT(calls, 0u) << run.algorithm;
    EXPECT_EQ(calls, run.jobs.size()) << run.algorithm;
  }
}

}  // namespace
}  // namespace vhadoop::ml
