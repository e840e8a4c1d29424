#include "ml/meanshift.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace vhadoop::ml {

namespace {

/// Canopy population: weights beside a row-major center store, so the
/// O(n^2) neighbourhood scans of shift_and_merge walk two contiguous
/// buffers.
struct FlatCanopies {
  std::vector<double> weights;
  PointMatrix centers;

  std::size_t size() const { return weights.size(); }
  void push(double w, std::span<const double> c) {
    centers.push(c);
    weights.push_back(w);
  }
};

/// Shift every canopy toward the weighted mean of its T1-neighbourhood,
/// then greedily merge canopies within T2. The kernel both the mapper
/// (over its split) and the reducer (over everything) apply. Arithmetic
/// order matches the original Vec-of-Canopy implementation exactly.
///
/// The T1 test of a pair is made once: (a - b)^2 and (b - a)^2 are equal
/// bit for bit, so the neighbourhoods form a symmetric bit matrix. The
/// diagonal is tested too, since a canopy with a NaN or infinite
/// coordinate is not its own neighbour. Each row's bits are then summed in
/// ascending order, the order in which a scan over all canopies adds them.
FlatCanopies shift_and_merge(const FlatCanopies& in, double t1, double t2) {
  const double t1_sq = t1 * t1, t2_sq = t2 * t2;
  const std::size_t n = in.size();
  const std::size_t dim = in.centers.cols();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> neighbours(n * words, 0);  // row i: canopy i's T1 bits
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = i; o < n; ++o) {
      if (squared_euclidean(in.centers.row(i), in.centers.row(o)) <= t1_sq) {
        neighbours[i * words + o / 64] |= std::uint64_t{1} << (o % 64);
        neighbours[o * words + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }
  std::vector<double> shifted(n * dim, 0.0);
  Vec sum(dim);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(sum.begin(), sum.end(), 0.0);
    double weight = 0.0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = neighbours[i * words + w]; bits != 0; bits &= bits - 1) {
        const std::size_t o = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const auto oc = in.centers.row(o);
        for (std::size_t d = 0; d < dim; ++d) sum[d] += oc[d] * in.weights[o];
        weight += in.weights[o];
      }
    }
    if (weight > 0.0) {
      for (std::size_t d = 0; d < dim; ++d) sum[d] *= 1.0 / weight;
    }
    std::copy(sum.begin(), sum.end(), shifted.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  FlatCanopies merged;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> c{shifted.data() + i * dim, dim};
    const double cw = in.weights[i];
    bool absorbed = false;
    for (std::size_t m = 0; m < merged.size(); ++m) {
      if (squared_euclidean(c, merged.centers.row(m)) <= t2_sq) {
        // Weighted average of the two centers.
        const double w = merged.weights[m] + cw;
        const std::span<double> mc = merged.centers.row(m);
        for (std::size_t d = 0; d < dim; ++d) {
          mc[d] = (mc[d] * merged.weights[m] + c[d] * cw) / w;
        }
        merged.weights[m] = w;
        absorbed = true;
        break;
      }
    }
    if (!absorbed) merged.push(cw, c);
  }
  return merged;
}

class MeanShiftMapper : public mapreduce::Mapper {
 public:
  MeanShiftMapper(double t1, double t2) : t1_(t1), t2_(t2) {}

  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    if (value.empty()) return;  // no weight, no center — nothing to shift
    const Weighted c = decode_weighted(value, scratch_);
    canopies_.push(c.weight, c.v);
  }

  void cleanup(mapreduce::Context& ctx) override {
    const FlatCanopies out = shift_and_merge(canopies_, t1_, t2_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ctx.emit("canopy", encode_weighted(out.weights[i], out.centers.row(i)));
    }
  }

 private:
  double t1_, t2_;
  FlatCanopies canopies_;
  std::vector<double> scratch_;
};

class MeanShiftReducer : public mapreduce::Reducer {
 public:
  MeanShiftReducer(double t1, double t2) : t1_(t1), t2_(t2) {}

  void reduce(std::string_view, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    FlatCanopies all;
    for (const std::string_view v : values) {
      if (v.empty()) continue;
      const Weighted c = decode_weighted(v, scratch_);
      all.push(c.weight, c.v);
    }
    const FlatCanopies out = shift_and_merge(all, t1_, t2_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::string key = "c";
      key += std::to_string(i);
      ctx.emit(key, encode_weighted(out.weights[i], out.centers.row(i)));
    }
  }

 private:
  double t1_, t2_;
  std::vector<double> scratch_;
};

}  // namespace

ClusteringRun meanshift_cluster(const Dataset& data, const MeanShiftConfig& config) {
  // NaN fails every comparison, so `t < 0` alone would let it through.
  if (!(config.t1 >= 0.0 && config.t2 >= 0.0)) {
    throw std::invalid_argument("meanshift: need T1 >= 0 and T2 >= 0");
  }
  // Every point starts as a unit-weight canopy.
  std::vector<mapreduce::KV> state;
  state.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    state.push_back({mapreduce::encode_i64(static_cast<std::int64_t>(i)),
                     encode_weighted(1.0, data.points[i])});
  }

  const mapreduce::RunJob run_job = job_runner(config.base);
  ClusteringRun run;
  run.algorithm = "meanshift";
  std::vector<Vec> prev_centers;
  std::vector<double> scratch;

  for (int iter = 0; iter < config.base.max_iterations; ++iter) {
    mapreduce::JobSpec spec;
    spec.config.name = "meanshift-iter" + std::to_string(iter);
    spec.config.num_reduces = 1;
    spec.config.cost.map_cpu_per_record = 2e-5;  // O(n^2/splits) neighbourhood scans
    spec.config.cost.map_cpu_per_byte = 2e-8;
    const double t1 = config.t1, t2 = config.t2;
    spec.mapper = [t1, t2] { return std::make_unique<MeanShiftMapper>(t1, t2); };
    spec.reducer = [t1, t2] { return std::make_unique<MeanShiftReducer>(t1, t2); };

    auto result = run_job(spec, state, config.base.num_splits);
    ++run.iterations;

    std::vector<Vec> centers;
    state.clear();
    for (const mapreduce::KV& kv : result.output) {
      const Weighted c = decode_weighted(kv.value, scratch);
      centers.emplace_back(c.v.begin(), c.v.end());
      state.push_back({kv.key, kv.value});
    }
    run.jobs.push_back(std::move(result));
    run.iteration_centers.push_back(centers);

    // Converged when the canopy population is stable and nothing moved
    // farther than the delta.
    bool converged = !prev_centers.empty() && centers.size() == prev_centers.size();
    if (converged) {
      for (const Vec& c : centers) {
        double best = std::numeric_limits<double>::infinity();
        for (const Vec& p : prev_centers) best = std::min(best, euclidean(c, p));
        if (best > config.base.convergence_delta) {
          converged = false;
          break;
        }
      }
    }
    prev_centers = std::move(centers);
    if (converged) break;
  }

  run.centers = prev_centers;
  run.assignments = assign_nearest(data, run.centers, config.base.threads);
  return run;
}

}  // namespace vhadoop::ml
