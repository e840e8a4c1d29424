#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vhadoop::mapreduce {

/// Default worker count for logical job execution.
inline unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

namespace detail {
/// Depth of parallel_for nesting on this thread. Nested parallel
/// sections execute inline on the calling worker: the split *structure* of
/// parallel algorithms is always a pure function of the data (never of the
/// thread count), so inlining changes scheduling only, not results.
inline thread_local int parallel_depth = 0;

struct ParallelDepthScope {
  ParallelDepthScope() { ++parallel_depth; }
  ~ParallelDepthScope() { --parallel_depth; }
  ParallelDepthScope(const ParallelDepthScope&) = delete;
  ParallelDepthScope& operator=(const ParallelDepthScope&) = delete;
};
}  // namespace detail

/// Persistent, lazily-started worker pool. `WorkerPool::shared(threads)`
/// hands out one pool per thread count that lives for the whole process:
/// every LocalJobRunner and every ml::assign_nearest call at that count
/// borrows it, so a chain of millisecond jobs pays worker creation once per
/// process instead of once per runner or per call.
///
/// Threads start on the first parallel batch that can actually use them
/// (never for serial pools or single-iteration batches).
///
/// parallel_for runs `fn(i)` for i in [0, n) and blocks until all finish.
/// It is a template over the callable: the callable stays on the caller's
/// stack and is invoked through one function pointer — no std::function
/// allocation per call. Indices are claimed from an atomic counter, so each
/// executes exactly once; callers write only to per-index slots, which
/// keeps execution data-race-free (C++ Core Guidelines CP.2) without locks.
/// A throwing iteration drains the remaining indices and the first
/// exception is rethrown on the caller. Nested calls (from inside a
/// worker) execute inline, so parallel algorithms may compose without
/// deadlock; determinism is unaffected because split structure never
/// depends on the execution schedule. Top-level callers on different
/// threads take turns: one batch runs at a time.
///
/// An index must carry much more work than its claim. Each index costs two
/// atomic updates on counters every participant shares; under 4-thread
/// contention that is about 0.5 µs of CPU, while a nearest-center scan of
/// one 2-d point against 3 centers takes tens of nanoseconds. Callers with
/// fine-grained work hand out blocks: ml::assign_nearest claims one index
/// per 256 points.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned threads = 0)
      : threads_(threads == 0 ? default_threads() : threads) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::scoped_lock lock(m_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// The process-wide pool for `threads` workers (0 = default_threads()).
  /// Created on first use and joined at process exit.
  static WorkerPool& shared(unsigned threads = 0) {
    static std::mutex pools_mutex;
    static std::map<unsigned, std::unique_ptr<WorkerPool>> pools;
    const unsigned n = threads == 0 ? default_threads() : threads;
    const std::scoped_lock lock(pools_mutex);
    std::unique_ptr<WorkerPool>& pool = pools[n];
    if (!pool) pool = std::make_unique<WorkerPool>(n);
    return *pool;
  }

  unsigned threads() const { return threads_; }

  /// True once worker threads have been started (test/introspection hook).
  bool started() const {
    const std::scoped_lock lock(m_);
    return !workers_.empty();
  }

  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (threads_ <= 1 || n == 1 || detail::parallel_depth > 0) {
      const detail::ParallelDepthScope scope;
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    using Callable = std::remove_reference_t<Fn>;
    run_batch(
        n, +[](void* ctx, std::size_t i) { (*static_cast<Callable*>(ctx))(i); },
        const_cast<std::remove_const_t<Callable>*>(&fn));
  }

 private:
  /// Execute one batch: publish the job to the workers, participate in the
  /// claim loop, then wait until every index has finished. Returning as soon
  /// as all *indices* are done (rather than when all workers have left the
  /// claim loop) keeps batch latency low; the next publish waits for
  /// `active_ == 0` so stragglers from the previous batch can never observe
  /// the counters being reset. `caller_` admits one top-level caller at a
  /// time: the batch state (n_, completed_, first_error_) belongs to it
  /// from publish until its own wake-up, so a second caller cannot
  /// overwrite it between this caller's `--active_` and its `done_` wait.
  void run_batch(std::size_t n, void (*invoke)(void*, std::size_t), void* ctx) {
    const std::scoped_lock turn(caller_);
    start();
    {
      std::unique_lock lock(m_);
      idle_.wait(lock, [&] { return active_ == 0; });
      invoke_ = invoke;
      ctx_ = ctx;
      n_ = n;
      next_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      first_error_ = nullptr;
      ++epoch_;
      ++active_;  // the caller is a full participant
    }
    wake_.notify_all();
    work();
    std::unique_lock lock(m_);
    if (--active_ == 0) idle_.notify_one();
    done_.wait(lock, [&] { return completed_.load(std::memory_order_acquire) >= n_; });
    if (first_error_) {
      const std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  void start() {
    const std::scoped_lock lock(m_);
    if (!workers_.empty() || stop_) return;
    workers_.reserve(threads_ - 1);
    for (unsigned w = 0; w + 1 < threads_; ++w) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    std::uint64_t seen = 0;
    std::unique_lock lock(m_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      ++active_;  // committed to this batch before releasing the lock
      lock.unlock();
      work();
      lock.lock();
      if (--active_ == 0) idle_.notify_one();
    }
  }

  /// Claim-and-execute loop shared by the caller and every worker. Each
  /// fetch_add claims a unique index; an index that throws records the
  /// first exception and drains the rest by exchanging the claim counter
  /// to n (crediting the never-claimed indices so completion accounting
  /// still reaches n exactly).
  ///
  /// The drain and its credit run only after the catch handler has ended:
  /// the credit may wake the caller, which rethrows and destroys the
  /// exception, and the handler's own release of it must come first.
  void work() {
    const detail::ParallelDepthScope scope;
    const std::size_t n = n_;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      bool threw = false;
      try {
        invoke_(ctx_, i);
      } catch (...) {
        threw = true;
        const std::scoped_lock lock(m_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      if (!threw) {
        credit(1, n);
        continue;
      }
      const std::size_t old = next_.exchange(n, std::memory_order_relaxed);
      // This index, plus every index nobody will ever claim.
      credit(1 + (old < n ? n - old : 0), n);
    }
  }

  void credit(std::size_t k, std::size_t n) {
    if (completed_.fetch_add(k, std::memory_order_acq_rel) + k >= n) {
      {
        // Pair with the waiter's predicate check so the notify cannot slip
        // between its load and its sleep.
        const std::scoped_lock lock(m_);
      }
      done_.notify_all();
    }
  }

  const unsigned threads_;
  std::mutex caller_;  ///< held by the one top-level caller running a batch
  mutable std::mutex m_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::condition_variable idle_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;
  unsigned active_ = 0;  ///< participants still inside the current claim loop

  // Current batch (published under m_, executed lock-free).
  void (*invoke_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::exception_ptr first_error_;
};

}  // namespace vhadoop::mapreduce
