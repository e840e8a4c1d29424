// Unit tests for the reduce side's k-way merge (DESIGN.md §15): the
// pull-based MergeCursor heap and ReduceMerge, which merges the key ranges
// of plan_merge_ranges one after another. Both must yield the order of a
// stable sort of the runs' concatenation, with comparison counts that are a
// function of the data and the range cutoff alone. The counts below are
// literals: they were recorded from the merge that wrote every reduce
// partition out before the reducer ran, so the streamed merge is held to
// the same gated counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/reduce_merge.hpp"

namespace mr = vhadoop::mapreduce;

namespace {

using Runs = std::vector<std::vector<mr::KVBatch::Entry>>;

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Batch of entries with adversarial keys (shared prefixes, hot keys) and
/// values that record the push index, so stability is checkable.
mr::KVBatch random_batch(std::uint64_t seed, std::size_t n, std::size_t key_space) {
  mr::KVBatch batch;
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = splitmix(s) % key_space;
    std::string key = pick % 7 == 0 ? "shared-prefix-beyond-8-" : "k";  // prefix ties
    key += std::to_string(pick);
    batch.push(key, std::to_string(i));
  }
  return batch;
}

/// Half the entries share one hot key, the rest spread over 50 keys.
mr::KVBatch skewed_batch() {
  mr::KVBatch skewed;
  std::uint64_t s = 22;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "skew-hot";
    if (i % 2 != 0) {
      key = "skew-k";
      key += std::to_string(splitmix(s) % 50);
    }
    skewed.push(key, std::to_string(i));
  }
  return skewed;
}

mr::KVBatch hot_batch() {
  mr::KVBatch batch;
  for (int i = 0; i < 3000; ++i) batch.push("hot", std::to_string(i));
  return batch;
}

/// Deal the batch's entries round-robin into `num_runs` runs, each sorted.
/// The runs point into the batch, which must outlive them.
Runs sorted_runs(const mr::KVBatch& batch, std::size_t num_runs) {
  Runs runs(num_runs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    runs[i % num_runs].push_back(batch.entry(i));
  }
  for (auto& r : runs) mr::sort_entries(r);
  return runs;
}
Runs sorted_runs(mr::KVBatch&& batch, std::size_t num_runs) = delete;

/// The hot runs with empty runs beside them.
Runs with_empty_runs(const Runs& runs) {
  return {{}, runs[0], {}, runs[1], runs[2], {}};
}

std::vector<std::span<const mr::KVBatch::Entry>> spans_of(const Runs& runs) {
  return {runs.begin(), runs.end()};
}

/// The order every merge must produce: the runs concatenated in run order,
/// stably sorted by key, so ties keep the earlier run first.
std::vector<mr::KVBatch::Entry> stable_merge(const Runs& runs) {
  std::vector<mr::KVBatch::Entry> all;
  for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return mr::compare_entries(a, b) < 0;
  });
  return all;
}

/// Every entry a cursor yields, in order.
template <class Cursor>
std::vector<mr::KVBatch::Entry> drain(Cursor& in) {
  std::vector<mr::KVBatch::Entry> out;
  while (const mr::KVBatch::Entry* e = in.next()) out.push_back(*e);
  EXPECT_EQ(in.next(), nullptr);  // a drained cursor stays drained
  return out;
}

void expect_same_entries(const std::vector<mr::KVBatch::Entry>& a,
                         const std::vector<mr::KVBatch::Entry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key()) << i;
    EXPECT_EQ(a[i].value(), b[i].value()) << i;  // value = push index: checks stability
  }
}

// --- run_split_count ---------------------------------------------------------

TEST(RunSplitCount, IsAPureStepFunctionOfSizeAndThreshold) {
  EXPECT_EQ(mr::run_split_count(0, 100), 1u);
  EXPECT_EQ(mr::run_split_count(100, 100), 1u);
  EXPECT_EQ(mr::run_split_count(101, 100), 2u);
  EXPECT_EQ(mr::run_split_count(200, 100), 2u);
  EXPECT_EQ(mr::run_split_count(201, 100), 4u);
  EXPECT_EQ(mr::run_split_count(1000, 100), 16u);
  // Capped at 64 runs no matter how big the input.
  EXPECT_EQ(mr::run_split_count(1'000'000'000, 1), 64u);
}

// --- MergeCursor -------------------------------------------------------------

TEST(MergeCursor, MatchesStableSortAndRecordedCounts) {
  struct Case {
    const char* name;
    Runs runs;
    std::int64_t comparisons;
  };
  const auto keys60 = random_batch(11, 4000, 60);
  const auto skewed = skewed_batch();
  const auto keys500 = random_batch(13, 6000, 500);
  const auto keys30 = random_batch(17, 500, 30);
  const auto hot_keys = hot_batch();
  const Runs hot = sorted_runs(hot_keys, 3);
  const std::vector<Case> cases{
      {"5 runs over 60 keys", sorted_runs(keys60, 5), 8408},
      {"6 skewed runs", sorted_runs(skewed, 6), 9959},
      {"7 runs over 500 keys", sorted_runs(keys500, 7), 17708},
      {"4 runs over 30 keys", sorted_runs(keys30, 4), 1071},
      // One key only: every comparison is a tie, settled by run order.
      {"3 hot runs", hot, 3000},
      {"hot runs beside empty runs", with_empty_runs(hot), 3000},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    mr::MergeCursor in(spans_of(c.runs));
    expect_same_entries(drain(in), stable_merge(c.runs));
    EXPECT_EQ(in.comparisons(), c.comparisons);
  }
}

// --- ReduceMerge -------------------------------------------------------------

TEST(ReduceMerge, RangesKeepOrderAndCountsAtEverySplitFactor) {
  // Each min_split cuts the merge into a different number of key ranges
  // (64 down to 1); the order never changes, and the count is the sum of
  // the ranges' heap merges.
  struct Case {
    const char* name;
    Runs runs;
    std::vector<std::pair<std::size_t, std::int64_t>> counts;  // (min_split, comparisons)
  };
  const auto keys60 = random_batch(11, 4000, 60);
  const auto skewed = skewed_batch();
  const auto keys500 = random_batch(13, 6000, 500);
  const std::vector<Case> cases{
      {"5 runs over 60 keys",
       sorted_runs(keys60, 5),
       {{50, 6206}, {300, 7849}, {2000, 8371}, {100000, 8408}}},
      {"6 skewed runs",
       sorted_runs(skewed, 6),
       {{50, 5762}, {300, 6644}, {2000, 7361}, {100000, 9959}}},
      {"7 runs over 500 keys", sorted_runs(keys500, 7), {{200, 17310}}},
  };
  for (const Case& c : cases) {
    const auto expected = stable_merge(c.runs);
    for (const auto& [min_split, comparisons] : c.counts) {
      std::string trace = c.name;
      trace += ", min_split ";
      trace += std::to_string(min_split);
      SCOPED_TRACE(trace);
      mr::ReduceMerge in(spans_of(c.runs), min_split);
      expect_same_entries(drain(in), expected);
      EXPECT_EQ(in.comparisons(), comparisons);
    }
  }
}

TEST(ReduceMerge, BelowCutoffIsOneMergeCursor) {
  const auto batch = random_batch(17, 500, 30);
  const auto runs = sorted_runs(batch, 4);
  mr::MergeCursor one(spans_of(runs));
  mr::ReduceMerge ranged(spans_of(runs), 100000);
  expect_same_entries(drain(ranged), drain(one));
  EXPECT_EQ(ranged.comparisons(), one.comparisons());
  EXPECT_EQ(ranged.comparisons(), 1071);
}

TEST(ReduceMerge, SingleHotKeyCollapsesRangesButStaysCorrect) {
  // Every key equal: all boundary candidates coincide, so all but one range
  // is empty — output must still be the stable order, also with empty runs
  // beside the hot ones.
  const auto batch = hot_batch();
  const Runs hot = sorted_runs(batch, 3);
  for (const auto& runs : {hot, with_empty_runs(hot)}) {
    mr::ReduceMerge in(spans_of(runs), 100);
    expect_same_entries(drain(in), stable_merge(runs));
    EXPECT_EQ(in.comparisons(), 3000);
  }
}

TEST(ReduceMerge, EmptyAndSingleRunEdgeCases) {
  mr::ReduceMerge none({}, 10);
  EXPECT_EQ(none.next(), nullptr);
  EXPECT_EQ(none.comparisons(), 0);

  mr::KVBatch batch;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k";
    key += std::to_string(i % 9);
    batch.push(key, std::to_string(i));
  }
  const Runs single{{}, sorted_runs(batch, 1)[0], {}};
  // 100 entries past min_split 10: 16 ranges, each holding one run's slice.
  mr::ReduceMerge in(spans_of(single), 10);
  expect_same_entries(drain(in), single[1]);
  EXPECT_EQ(in.comparisons(), 0);  // one run: no comparisons
}

}  // namespace
