#include "ml/meanshift.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace vhadoop::ml {

namespace {

struct Canopy {
  double weight = 1.0;
  Vec center;
};

std::string encode_canopy(double weight, std::span<const double> center) {
  std::string out((center.size() + 1) * sizeof(double), '\0');
  std::memcpy(out.data(), &weight, sizeof(double));
  if (!center.empty()) {
    std::memcpy(out.data() + sizeof(double), center.data(), center.size() * sizeof(double));
  }
  return out;
}

Canopy decode_canopy(std::string_view s) {
  Vec payload = mapreduce::decode_vec(s);
  Canopy c;
  c.weight = payload.empty() ? 0.0 : payload[0];
  c.center.assign(payload.begin() + (payload.empty() ? 0 : 1), payload.end());
  return c;
}

/// Canopy population in row-major flat storage: the O(n^2) neighbourhood
/// scans of shift_and_merge walk two contiguous buffers.
struct FlatCanopies {
  std::vector<double> weights;
  std::vector<double> centers;  // row-major size() x dim
  std::size_t dim = 0;

  std::size_t size() const { return weights.size(); }
  std::span<const double> center(std::size_t i) const { return {centers.data() + i * dim, dim}; }
  void push(double w, std::span<const double> c) {
    weights.push_back(w);
    centers.insert(centers.end(), c.begin(), c.end());
  }
};

/// Shift every canopy toward the weighted mean of its T1-neighbourhood,
/// then greedily merge canopies within T2. The kernel both the mapper
/// (over its split) and the reducer (over everything) apply. Arithmetic
/// order matches the original Vec-of-Canopy implementation exactly.
FlatCanopies shift_and_merge(const FlatCanopies& in, double t1, double t2) {
  const double t1_sq = t1 * t1, t2_sq = t2 * t2;
  const std::size_t dim = in.dim;
  std::vector<double> shifted(in.size() * dim, 0.0);
  Vec sum(dim);
  for (std::size_t i = 0; i < in.size(); ++i) {
    std::fill(sum.begin(), sum.end(), 0.0);
    double weight = 0.0;
    for (std::size_t o = 0; o < in.size(); ++o) {
      if (squared_euclidean(in.center(i), in.center(o)) <= t1_sq) {
        const auto oc = in.center(o);
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
  merged.dim = dim;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::span<const double> c{shifted.data() + i * dim, dim};
    const double cw = in.weights[i];
    bool absorbed = false;
    for (std::size_t m = 0; m < merged.size(); ++m) {
      if (squared_euclidean(c, merged.center(m)) <= t2_sq) {
        // Weighted average of the two centers.
        const double w = merged.weights[m] + cw;
        double* mc = merged.centers.data() + m * dim;
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
    const auto payload = mapreduce::decode_vec_view(value, scratch_);
    if (payload.empty()) return;  // no weight, no center — nothing to shift
    if (canopies_.size() == 0) canopies_.dim = payload.size() - 1;
    canopies_.push(payload[0], payload.subspan(1));
  }

  void cleanup(mapreduce::Context& ctx) override {
    const FlatCanopies out = shift_and_merge(canopies_, t1_, t2_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ctx.emit("canopy", encode_canopy(out.weights[i], out.center(i)));
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
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      if (payload.empty()) continue;
      if (all.size() == 0) all.dim = payload.size() - 1;
      all.push(payload[0], payload.subspan(1));
    }
    const FlatCanopies out = shift_and_merge(all, t1_, t2_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::string key = "c";
      key += std::to_string(i);
      ctx.emit(key, encode_canopy(out.weights[i], out.center(i)));
    }
  }

 private:
  double t1_, t2_;
  std::vector<double> scratch_;
};

}  // namespace

ClusteringRun meanshift_cluster(const Dataset& data, const MeanShiftConfig& config) {
  // Every point starts as a unit-weight canopy.
  std::vector<mapreduce::KV> state;
  state.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    state.push_back({mapreduce::encode_i64(static_cast<std::int64_t>(i)),
                     encode_canopy(1.0, data.points[i])});
  }

  const mapreduce::RunJob run_job = job_runner(config.base);
  ClusteringRun run;
  run.algorithm = "meanshift";
  std::vector<Vec> prev_centers;

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
      Canopy c = decode_canopy(kv.value);
      centers.push_back(c.center);
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
