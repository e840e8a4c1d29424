// Unit tests for the deterministic intra-task parallel runtime (DESIGN.md
// §15): the persistent WorkerPool and its process-wide instances, and the
// prefix-range parallel merge whose comparison counts must be bit-identical
// across thread counts; plus the reference oracle's spawn-per-call
// parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/parallel_merge.hpp"
#include "mapreduce/thread_pool.hpp"
#include "testutil/reference_runner.hpp"

namespace mr = vhadoop::mapreduce;
namespace tu = vhadoop::testutil;

namespace {

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
    std::string key;
    if (pick % 7 == 0) {
      key = "shared-prefix-beyond-8-" + std::to_string(pick);  // prefix ties
    } else {
      key = "k" + std::to_string(pick);
    }
    batch.push(key, std::to_string(i));
  }
  return batch;
}

std::vector<mr::KVBatch::Entry> entries_of(const mr::KVBatch& batch) {
  return {batch.entries().begin(), batch.entries().end()};
}

void expect_same_entries(const std::vector<mr::KVBatch::Entry>& a,
                         const std::vector<mr::KVBatch::Entry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key()) << i;
    EXPECT_EQ(a[i].value(), b[i].value()) << i;  // value = push index: checks stability
  }
}

// --- oracle parallel_for (template callable, exception drain) ----------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  tu::parallel_for(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, AcceptsNonCopyableCallableState) {
  // A template over the callable: mutable capture-by-reference of move-only
  // state compiles and runs without std::function wrapping.
  auto counter = std::make_unique<std::atomic<std::size_t>>(0);
  tu::parallel_for(100, 3, [&counter](std::size_t) { counter->fetch_add(1); });
  EXPECT_EQ(counter->load(), 100u);
}

TEST(ParallelFor, ThrowingIterationDrainsAndRethrows) {
  constexpr std::size_t kN = 10000;
  std::atomic<std::size_t> executed{0};
  std::vector<std::atomic<int>> hits(kN);
  try {
    tu::parallel_for(kN, 4, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("boom");
      hits[i].fetch_add(1);
      executed.fetch_add(1);
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Remaining iterations were drained (skipped), never double-executed.
  EXPECT_LT(executed.load(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_LE(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialWhenSingleThreaded) {
  std::vector<std::size_t> order;
  tu::parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --- WorkerPool --------------------------------------------------------------

TEST(WorkerPool, StartsLazilyAndOnlyForRealBatches) {
  mr::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  EXPECT_FALSE(pool.started());
  pool.parallel_for(0, [](std::size_t) {});
  pool.parallel_for(1, [](std::size_t) {});  // single iteration: inline
  EXPECT_FALSE(pool.started());
  std::atomic<int> n{0};
  pool.parallel_for(8, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_TRUE(pool.started());
  EXPECT_EQ(n.load(), 8);
}

TEST(WorkerPool, SerialPoolNeverStartsThreads) {
  mr::WorkerPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_FALSE(pool.started());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(WorkerPool, ReusableAcrossManyBatches) {
  mr::WorkerPool pool(4);
  for (int batch = 0; batch < 200; ++batch) {
    const std::size_t n = 1 + static_cast<std::size_t>(batch % 37);
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << batch << ":" << i;
  }
}

TEST(WorkerPool, ThrowingIterationDrainsRethrowsAndPoolSurvives) {
  mr::WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  EXPECT_THROW(pool.parallel_for(hits.size(),
                                 [&](std::size_t i) {
                                   if (i == 23) throw std::invalid_argument("bad");
                                   hits[i].fetch_add(1);
                                 }),
               std::invalid_argument);
  for (auto& h : hits) EXPECT_LE(h.load(), 1);
  // The pool must be fully usable after an exceptional batch.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(WorkerPool, NestedCallsRunInlineWithoutDeadlock) {
  mr::WorkerPool pool(4);
  std::atomic<int> units{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { units.fetch_add(1); });
  });
  EXPECT_EQ(units.load(), 32);
}

TEST(WorkerPool, SharedIsOnePoolPerThreadCount) {
  mr::WorkerPool& three = mr::WorkerPool::shared(3);
  EXPECT_EQ(three.threads(), 3u);
  EXPECT_EQ(&mr::WorkerPool::shared(3), &three);
  EXPECT_NE(&mr::WorkerPool::shared(2), &three);
  EXPECT_EQ(&mr::WorkerPool::shared(0), &mr::WorkerPool::shared(mr::default_threads()));
}

TEST(WorkerPool, ConcurrentCallersGetOnlyTheirOwnIndicesAndExceptions) {
  // Two top-level callers interleave batches on one pool; every third batch
  // throws. Each caller must see each index of a clean batch exactly once,
  // and only its own exceptions.
  mr::WorkerPool pool(4);
  auto caller = [&pool](int id, std::string& failure) {
    for (int b = 0; b < 300 && failure.empty(); ++b) {
      const std::size_t n = 2 + static_cast<std::size_t>((b * 13 + id * 7) % 97);
      const bool throws = b % 3 == id;
      const std::string tag = "caller " + std::to_string(id) + " batch " + std::to_string(b);
      std::vector<std::atomic<int>> hits(n);
      try {
        pool.parallel_for(n, [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (throws && i == n / 2) throw std::runtime_error(tag);
        });
        if (throws) failure = tag + ": exception lost";
      } catch (const std::runtime_error& e) {
        if (!throws || e.what() != tag) failure = tag + ": caught '" + e.what() + "'";
      }
      for (std::size_t i = 0; i < n; ++i) {
        const int h = hits[i].load();
        if (h > 1 || (!throws && h != 1)) {
          failure = tag + ": index " + std::to_string(i) + " ran " + std::to_string(h) + "x";
        }
      }
    }
  };
  std::string failure0, failure1;
  std::thread t0(caller, 0, std::ref(failure0));
  std::thread t1(caller, 1, std::ref(failure1));
  t0.join();
  t1.join();
  EXPECT_EQ(failure0, "");
  EXPECT_EQ(failure1, "");
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

// --- parallel merge ----------------------------------------------------------

std::vector<std::vector<mr::KVBatch::Entry>> sorted_runs(const mr::KVBatch& batch,
                                                         std::size_t num_runs) {
  std::vector<std::vector<mr::KVBatch::Entry>> runs(num_runs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    runs[i % num_runs].push_back(batch.entry(i));
  }
  for (auto& r : runs) mr::sort_entries(r);
  return runs;
}

std::vector<std::span<const mr::KVBatch::Entry>> spans_of(
    const std::vector<std::vector<mr::KVBatch::Entry>>& runs) {
  return {runs.begin(), runs.end()};
}

TEST(ParallelMerge, MatchesSerialMergeAtEverySplitFactor) {
  // Five runs over 60 keys, and six runs where half the entries share one
  // hot key and the rest spread over 50 keys.
  const auto batch = random_batch(11, 4000, 60);
  mr::KVBatch skewed;
  std::uint64_t s = 22;
  for (int i = 0; i < 5000; ++i) {
    skewed.push(i % 2 == 0 ? "skew-hot" : "skew-k" + std::to_string(splitmix(s) % 50),
                std::to_string(i));
  }
  for (const auto& runs : {sorted_runs(batch, 5), sorted_runs(skewed, 6)}) {
    std::vector<mr::KVBatch::Entry> expected;
    mr::merge_runs(spans_of(runs), expected);
    for (const std::size_t min_split : {50u, 300u, 2000u, 100000u}) {
      mr::WorkerPool pool(4);
      std::vector<mr::KVBatch::Entry> got;
      mr::parallel_merge_runs(spans_of(runs), got, min_split, pool);
      expect_same_entries(got, expected);
    }
  }
}

TEST(ParallelMerge, ComparisonCountIsIdenticalAcrossThreadCounts) {
  const auto batch = random_batch(13, 6000, 500);
  const auto runs = sorted_runs(batch, 7);
  std::vector<std::int64_t> counts;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    mr::WorkerPool pool(threads);
    std::vector<mr::KVBatch::Entry> out;
    counts.push_back(mr::parallel_merge_runs(spans_of(runs), out, 200, pool));
  }
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], counts[0]);
  EXPECT_GT(counts[0], 0);
}

TEST(ParallelMerge, BelowCutoffIsExactlyTheSerialMerge) {
  const auto batch = random_batch(17, 500, 30);
  const auto runs = sorted_runs(batch, 4);
  std::vector<mr::KVBatch::Entry> serial_out, par_out;
  const std::int64_t serial = mr::merge_runs(spans_of(runs), serial_out);
  mr::WorkerPool pool(8);
  const std::int64_t par = mr::parallel_merge_runs(spans_of(runs), par_out, 100000, pool);
  EXPECT_EQ(par, serial);
  expect_same_entries(par_out, serial_out);
}

TEST(ParallelMerge, SingleHotKeyCollapsesRangesButStaysCorrect) {
  // Every key equal: all boundary candidates coincide, so all but one range
  // is empty — output must still be the stable serial order, also with
  // empty runs beside the hot ones.
  mr::KVBatch batch;
  for (int i = 0; i < 3000; ++i) batch.push("hot", std::to_string(i));
  const auto hot = sorted_runs(batch, 3);
  const std::vector<std::vector<mr::KVBatch::Entry>> with_empty{{}, hot[0], {}, hot[1], hot[2],
                                                                {}};
  for (const auto& runs : {hot, with_empty}) {
    std::vector<mr::KVBatch::Entry> expected, got;
    mr::merge_runs(spans_of(runs), expected);
    mr::WorkerPool pool(4);
    mr::parallel_merge_runs(spans_of(runs), got, 100, pool);
    expect_same_entries(got, expected);
  }
}

TEST(ParallelMerge, EmptyAndSingleRunEdgeCases) {
  mr::WorkerPool pool(4);
  std::vector<mr::KVBatch::Entry> out;
  EXPECT_EQ(mr::parallel_merge_runs({}, out, 10, pool), 0);
  EXPECT_TRUE(out.empty());

  mr::KVBatch batch;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k";
    key += std::to_string(i % 9);
    batch.push(key, std::to_string(i));
  }
  auto run = entries_of(batch);
  mr::sort_entries(run);
  std::vector<std::span<const mr::KVBatch::Entry>> spans{{}, run, {}};
  EXPECT_EQ(mr::parallel_merge_runs(spans, out, 10, pool), 0);  // one run: no comparisons
  ASSERT_EQ(out.size(), run.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].value(), run[i].value());
}

// --- KVBatch lazy arena ------------------------------------------------------

TEST(KVBatchLazyArena, ChunksGrowGeometricallyAndResetOnClear) {
  mr::KVBatch small(64 * 1024, 1024);
  EXPECT_EQ(small.chunks_allocated(), 0);  // lazy: nothing until first push
  auto fill = [&] {
    for (int i = 0; i < 400; ++i) small.push("key-" + std::to_string(i), std::string(32, 'v'));
    return small.chunks_allocated();
  };
  const std::int64_t first_fill = fill();
  // ~19 KiB of payload: geometric growth (1 KiB first chunk, doubling)
  // needs several chunks but far fewer than one per record.
  EXPECT_GT(first_fill, 1);
  EXPECT_LT(first_fill, 10);
  small.clear();
  EXPECT_EQ(small.chunks_allocated(), 0);
  // Chunk accounting restarts identically after clear — the gated
  // arena_chunks counter must not depend on batch reuse history.
  EXPECT_EQ(fill(), first_fill);
}

TEST(KVBatchLazyArena, FirstChunkIsClampedToSteadyState) {
  mr::KVBatch batch(1024, 1 << 30);  // first > steady: clamped, no 1 GiB chunk
  batch.push("k", std::string(100, 'x'));
  EXPECT_EQ(batch.chunks_allocated(), 1);
  for (int i = 0; i < 100; ++i) batch.push("k", std::string(100, 'x'));
  EXPECT_GT(batch.chunks_allocated(), 5);  // steady-state chunks stay 1 KiB
}

}  // namespace
