// Unit tests for the deterministic intra-task parallel runtime (DESIGN.md
// §15): the persistent WorkerPool and its process-wide instances, and the
// lazy KVBatch arena whose chunk counts must not depend on reuse history;
// plus the reference oracle's spawn-per-call parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/thread_pool.hpp"
#include "testutil/reference_runner.hpp"

namespace mr = vhadoop::mapreduce;
namespace tu = vhadoop::testutil;

namespace {

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
