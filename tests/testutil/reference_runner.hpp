#pragma once

// The runner's reference oracle (DESIGN.md §11): the original
// std::vector<KV> implementation of a LocalJobRunner job — partition moves,
// stable_sort, concatenate-and-re-sort merge — kept outside the production
// library. The equivalence suite and bench/ml_scaling run the same jobs on
// both and assert byte-identical outputs, task profiles, shuffle matrices
// and record/byte counters.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/thread_pool.hpp"

namespace vhadoop::testutil {

/// Run `fn(i)` for i in [0, n) on up to `threads` spawn-per-call workers.
/// Blocks until all iterations finish. Iterations are claimed from an atomic
/// counter, so the schedule is dynamic but each index executes exactly once;
/// callers write only to per-index slots, which keeps the execution
/// data-race-free (C++ Core Guidelines CP.2) without locks. A template over
/// the callable — no std::function heap allocation or virtual dispatch per
/// call. If an iteration throws, the remaining iterations are drained
/// (skipped) and the first exception is rethrown on the caller. Iterations
/// count as nested parallel sections, so a WorkerPool reached from inside
/// one runs inline.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  using mapreduce::detail::ParallelDepthScope;
  if (n == 0) return;
  if (threads <= 1 || n == 1 || mapreduce::detail::parallel_depth > 0) {
    const ParallelDepthScope scope;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads, n));
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      const ParallelDepthScope scope;
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(n);  // drain remaining iterations
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Executes a job like LocalJobRunner::run, on the string-vector path.
/// Expects a spec LocalJobRunner::run accepts; it does not re-validate it.
class ReferenceRunner {
 public:
  explicit ReferenceRunner(unsigned threads = 0)
      : threads_(threads == 0 ? mapreduce::default_threads() : threads) {}

  mapreduce::JobResult run(const mapreduce::JobSpec& spec, std::span<const mapreduce::KV> input,
                           int num_splits) const;

 private:
  unsigned threads_;
};

}  // namespace vhadoop::testutil
