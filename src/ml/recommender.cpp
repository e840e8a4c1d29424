#include "ml/recommender.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "mapreduce/local_runner.hpp"
#include "mapreduce/stock_reducers.hpp"
#include "sim/rng.hpp"

namespace vhadoop::ml {

namespace {

/// Group ratings per user (the "user vector" input of the pipeline).
std::map<std::int64_t, std::vector<Rating>> user_vectors(const std::vector<Rating>& ratings) {
  std::map<std::int64_t, std::vector<Rating>> by_user;
  for (const Rating& r : ratings) by_user[r.user].push_back(r);
  return by_user;
}

/// Records for job 1: key = user id, value = packed (item, value) pairs.
std::vector<mapreduce::KV> vector_records(
    const std::map<std::int64_t, std::vector<Rating>>& by_user) {
  std::vector<mapreduce::KV> records;
  records.reserve(by_user.size());
  for (const auto& [user, prefs] : by_user) {
    std::vector<double> packed;
    packed.reserve(prefs.size() * 2);
    for (const Rating& r : prefs) {
      packed.push_back(static_cast<double>(r.item));
      packed.push_back(r.value);
    }
    records.push_back({mapreduce::encode_i64(user), mapreduce::encode_vec(packed)});
  }
  return records;
}

/// Job 1 mapper: every co-rated item pair in a user vector counts once.
/// Iterates the packed (item, value) payload in place — no Rating
/// materialization per record.
class CooccurrenceMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    const auto packed = mapreduce::decode_vec_view(value, scratch_);
    for (std::size_t i = 0; i + 1 < packed.size(); i += 2) {
      const auto a = static_cast<std::int64_t>(packed[i]);
      for (std::size_t j = 0; j + 1 < packed.size(); j += 2) {
        const auto b = static_cast<std::int64_t>(packed[j]);
        if (a != b) counts_[{a, b}] += 1.0;
      }
    }
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (const auto& [pair, n] : counts_) {
      const double payload[2] = {static_cast<double>(pair.second), n};
      ctx.emit(mapreduce::encode_i64(pair.first), mapreduce::encode_vec(payload));
    }
  }

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, double> counts_;
  std::vector<double> scratch_;
};

/// Job 1 reducer: assemble one co-occurrence matrix row.
class RowReducer : public mapreduce::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mapreduce::Context& ctx) override {
    std::map<std::int64_t, double> row;
    for (auto v : values) {
      const auto payload = mapreduce::decode_vec_view(v, scratch_);
      row[static_cast<std::int64_t>(payload[0])] += payload[1];
    }
    std::vector<double> packed;
    packed.reserve(row.size() * 2);
    for (const auto& [item, n] : row) {
      packed.push_back(static_cast<double>(item));
      packed.push_back(n);
    }
    ctx.emit(key, mapreduce::encode_vec(packed));
  }

 private:
  std::vector<double> scratch_;
};

/// Job 2 mapper: user vector x co-occurrence matrix -> top-N unseen items.
class RecommendMapper : public mapreduce::Mapper {
 public:
  RecommendMapper(std::shared_ptr<const std::map<std::int64_t, std::map<std::int64_t, double>>> co,
                  int top_n)
      : co_(std::move(co)), top_n_(top_n) {}

  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    const auto packed = mapreduce::decode_vec_view(value, scratch_);
    std::set<std::int64_t> seen;
    for (std::size_t i = 0; i + 1 < packed.size(); i += 2) {
      seen.insert(static_cast<std::int64_t>(packed[i]));
    }

    std::map<std::int64_t, double> score;
    for (std::size_t i = 0; i + 1 < packed.size(); i += 2) {
      auto row = co_->find(static_cast<std::int64_t>(packed[i]));
      // vlint: allow(no-exact-float-compare) audited PR 8: iterator-vs-end compare; row collides with the double-valued map in CombineReducer
      if (row == co_->end()) continue;
      for (const auto& [item, n] : row->second) {
        if (!seen.contains(item)) score[item] += n * packed[i + 1];
      }
    }
    std::vector<std::pair<double, std::int64_t>> ranked;
    ranked.reserve(score.size());
    for (const auto& [item, s] : score) ranked.push_back({s, item});
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;  // deterministic tie-break
    });
    std::vector<double> top;
    for (int i = 0; i < top_n_ && i < static_cast<int>(ranked.size()); ++i) {
      top.push_back(static_cast<double>(ranked[static_cast<std::size_t>(i)].second));
    }
    ctx.emit(key, mapreduce::encode_vec(top));
  }

 private:
  std::shared_ptr<const std::map<std::int64_t, std::map<std::int64_t, double>>> co_;
  int top_n_;
  std::vector<double> scratch_;
};

}  // namespace

RecommenderRun recommend_items(const std::vector<Rating>& ratings,
                               const RecommenderConfig& config) {
  mapreduce::LocalJobRunner runner(config.threads);
  const auto by_user = user_vectors(ratings);
  const auto records = vector_records(by_user);

  RecommenderRun run;

  // --- job 1: co-occurrence matrix -----------------------------------------
  mapreduce::JobSpec co_spec;
  co_spec.config.name = "item-cooccurrence";
  co_spec.config.num_reduces = config.num_reduces;
  co_spec.config.cost.map_cpu_per_record = 6e-6;
  co_spec.config.cost.map_cpu_per_byte = 3e-8;
  co_spec.mapper = [] { return std::make_unique<CooccurrenceMapper>(); };
  co_spec.reducer = [] { return std::make_unique<RowReducer>(); };
  run.jobs.push_back(runner.run(co_spec, records, config.num_splits));

  auto co = std::make_shared<std::map<std::int64_t, std::map<std::int64_t, double>>>();
  for (const mapreduce::KV& kv : run.jobs[0].output) {
    const std::int64_t item = mapreduce::decode_i64(kv.key);
    const auto packed = mapreduce::decode_vec(kv.value);
    auto& row = (*co)[item];
    for (std::size_t i = 0; i + 1 < packed.size(); i += 2) {
      row[static_cast<std::int64_t>(packed[i])] += packed[i + 1];
    }
  }
  run.cooccurrence = *co;

  // --- job 2: per-user recommendation ---------------------------------------
  mapreduce::JobSpec rec_spec;
  rec_spec.config.name = "recommend";
  rec_spec.config.num_reduces = 1;
  rec_spec.config.cost.map_cpu_per_record = 8e-6;
  rec_spec.config.cost.map_cpu_per_byte = 3e-8;
  const int top_n = config.top_n;
  rec_spec.mapper = [co, top_n] { return std::make_unique<RecommendMapper>(co, top_n); };
  rec_spec.reducer = [] { return std::make_unique<mapreduce::IdentityReducer>(); };
  run.jobs.push_back(runner.run(rec_spec, records, config.num_splits));

  for (const mapreduce::KV& kv : run.jobs[1].output) {
    const std::int64_t user = mapreduce::decode_i64(kv.key);
    for (double item : mapreduce::decode_vec(kv.value)) {
      run.recommendations[user].push_back(static_cast<std::int64_t>(item));
    }
  }
  return run;
}

std::vector<Rating> synthetic_ratings(int groups, int users_per_group, int items_per_group,
                                      double rated_fraction, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Rating> ratings;
  for (int g = 0; g < groups; ++g) {
    for (int u = 0; u < users_per_group; ++u) {
      const std::int64_t user = g * users_per_group + u;
      for (int i = 0; i < items_per_group; ++i) {
        if (rng.uniform() < rated_fraction) {
          ratings.push_back({user, static_cast<std::int64_t>(g * items_per_group + i),
                             rng.uniform(3.0, 5.0)});
        }
      }
      // Sparse out-of-group noise.
      if (rng.uniform() < 0.3) {
        const std::int64_t noise_item = rng.uniform_int(
            static_cast<std::uint64_t>(groups) * static_cast<std::uint64_t>(items_per_group));
        ratings.push_back({user, noise_item, rng.uniform(1.0, 2.0)});
      }
    }
  }
  return ratings;
}

}  // namespace vhadoop::ml
