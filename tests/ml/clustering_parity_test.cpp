// Parity lock for the clustering kernels. Every call of the repo
// benchmark's ml-paper-clustering round (perfbench/local_workloads.cpp:
// three algorithms on Fig. 6's synthetic control 600x60 in 15 splits, six
// on Fig. 7's 1000 display samples in 2 splits) runs at two seeds, and
// MeanShift runs on 63, 64, 65 and 129 points in one split, where a map
// task's neighbour bit matrix ends just before, at and after a 64-bit word
// boundary. Each call is hashed into one FNV-1a digest: centers,
// assignments, iteration_centers, iterations, and every job's output
// records and DataPathStats. A kernel change meant as a pure speed change
// (DESIGN.md §15, "Clustering kernels") must pass this unmodified.
//
// The digests depend on libm's log, exp, pow and sqrt, as the gated
// counters of bench/baselines/ml_scaling.json already do.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ml/canopy.hpp"
#include "ml/dirichlet.hpp"
#include "ml/fuzzy_kmeans.hpp"
#include "ml/kmeans.hpp"
#include "ml/meanshift.hpp"
#include "ml/minhash.hpp"

namespace vhadoop::ml {
namespace {

/// 64-bit FNV-1a over the bytes of everything added.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    for (const unsigned char c : std::string_view(static_cast<const char*>(p), n)) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void vecs(const std::vector<Vec>& vs) {
    u64(vs.size());
    for (const Vec& v : vs) {
      u64(v.size());
      for (const double x : v) f64(x);
    }
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest(const ClusteringRun& run) {
  Fnv1a h;
  h.str(run.algorithm);
  h.vecs(run.centers);
  h.u64(run.assignments.size());
  for (const int a : run.assignments) h.i64(a);
  h.u64(run.iteration_centers.size());
  for (const std::vector<Vec>& centers : run.iteration_centers) h.vecs(centers);
  h.i64(run.iterations);
  h.u64(run.jobs.size());
  for (const mapreduce::JobResult& job : run.jobs) {
    h.u64(job.output.size());
    for (const mapreduce::KV& kv : job.output) {
      h.str(kv.key);
      h.str(kv.value);
    }
    const mapreduce::DataPathStats& s = job.stats;
    for (const std::int64_t v : {s.map_emit_records, s.map_emit_bytes, s.shuffle_records,
                                 s.sort_comparisons, s.merge_comparisons, s.arena_chunks}) {
      h.i64(v);
    }
  }
  return h.hex();
}

struct Call {
  std::string name;
  std::function<ClusteringRun()> run;
};

/// The ml-paper-clustering round at `seed`, with the datasets and
/// parameters of perfbench/local_workloads.cpp.
std::vector<Call> paper_round(std::uint64_t seed) {
  const Dataset control = synthetic_control(100, 60, seed);
  const Dataset display = display_clustering_samples(1000, seed);
  const ClusteringConfig fig6{.num_splits = 15, .num_reduces = 1, .max_iterations = 5};
  const ClusteringConfig fig7{.num_splits = 2, .num_reduces = 1, .max_iterations = 5};
  return {
      {"fig6 canopy",
       [=] { return canopy_cluster(control, {.t1 = 80.0, .t2 = 55.0, .base = fig6}); }},
      {"fig6 dirichlet",
       [=] {
         return static_cast<ClusteringRun>(
             dirichlet_cluster(control, {.k = 10, .alpha = 1.0, .base = fig6}));
       }},
      {"fig6 meanshift",
       [=] { return meanshift_cluster(control, {.t1 = 60.0, .t2 = 30.0, .base = fig6}); }},
      {"fig7 canopy",
       [=] { return canopy_cluster(display, {.t1 = 3.0, .t2 = 1.5, .base = fig7}); }},
      {"fig7 kmeans", [=] { return kmeans_cluster(display, {.k = 3, .base = fig7}); }},
      {"fig7 fuzzy_kmeans",
       [=] { return fuzzy_kmeans_cluster(display, {.k = 3, .m = 2.0, .base = fig7}); }},
      {"fig7 meanshift",
       [=] { return meanshift_cluster(display, {.t1 = 2.0, .t2 = 0.8, .base = fig7}); }},
      {"fig7 dirichlet",
       [=] {
         return static_cast<ClusteringRun>(
             dirichlet_cluster(display, {.k = 10, .alpha = 1.0, .base = fig7}));
       }},
      {"fig7 minhash",
       [=] {
         return static_cast<ClusteringRun>(
             minhash_cluster(display, {.num_hash_functions = 8, .keygroups = 2,
                                       .min_cluster_size = 5, .bucket_width = 2.0,
                                       .base = fig7}));
       }},
  };
}

struct Expected {
  std::uint64_t seed;
  const char* digests[9];  ///< in paper_round order
};

TEST(ClusteringParity, PaperRoundIsBitIdentical) {
  const Expected want[] = {
      {4711,
       {"4dc88cb609b06790", "9d1310966b3c858a", "ff69ac09886533f5", "6c638f3368d7d224",
        "202324ecc7718d8e", "24b51188804bbbcb", "e03c6983f3313a62", "2dad55571074cc95",
        "d6cfbbb546fe0347"}},
      {2012,
       {"52d335fb8d550cb2", "b80379399056595b", "ba91e3cdc591beae", "5bc5cbe5be1b80a3",
        "f5222998f09b6f84", "cc6dbde0be148453", "f200b6f6df97ab02", "2b77a5f1254e9387",
        "8fed3ec21f69c696"}},
  };
  for (const Expected& e : want) {
    const std::vector<Call> calls = paper_round(e.seed);
    ASSERT_EQ(calls.size(), std::size(e.digests));
    for (std::size_t c = 0; c < calls.size(); ++c) {
      EXPECT_EQ(digest(calls[c].run()), e.digests[c])
          << "seed " << e.seed << ", " << calls[c].name;
    }
  }
}

TEST(ClusteringParity, MeanShiftAroundWordBoundariesIsBitIdentical) {
  const struct {
    int points;
    const char* digest;
  } want[] = {{63, "7401367e74103b36"},
              {64, "f1e22c9039a4e1e5"},
              {65, "f737fafe1746a3e8"},
              {129, "877dc0c4285bcc7a"}};
  for (const auto& e : want) {
    const Dataset data = display_clustering_samples(e.points, 4711);
    const ClusteringRun run = meanshift_cluster(
        data, {.t1 = 2.0, .t2 = 0.8, .base = {.num_splits = 1, .max_iterations = 5}});
    EXPECT_EQ(digest(run), e.digest) << e.points << " points";
  }
}

}  // namespace
}  // namespace vhadoop::ml
