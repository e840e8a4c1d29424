#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mapreduce/kv_batch.hpp"

namespace vhadoop::mapreduce {

/// The reduce side's k-way merge. A reduce task of LocalJobRunner pulls its
/// input one entry at a time straight from the per-map sorted runs, as
/// Hadoop's final merge feeds the reduce task's iterator: no merged copy is
/// ever written out.
///
/// Determinism contract (DESIGN.md §15): the key-range plan below — how many
/// ranges a merge is cut into and where they fall — is a pure function of the
/// data and the size cutoff, never of the thread count or execution
/// schedule, and each merge runs on one thread. So the comparison counts
/// bench/ml_scaling gates on are the same at every thread count.

/// Number of key-ranges a merge of `n` entries is cut into: the smallest
/// power of two K with n <= K * threshold, capped at 64. K == 1 means one
/// range. Pure function of (n, threshold).
inline std::size_t run_split_count(std::size_t n, std::size_t threshold) {
  constexpr std::size_t kMaxRuns = 64;
  std::size_t k = 1;
  while (k < kMaxRuns && n > k * threshold) k *= 2;
  return k;
}

/// Key-range plan for one k-way merge: key-range boundaries on the 8-byte
/// big-endian prefix plus, per input run, the cut positions that realize
/// them. Built deterministically from run contents only.
struct MergeRangePlan {
  std::size_t ranges = 1;
  /// cut[r][j]: first index of run r belonging to range j (cut[r][0] == 0,
  /// cut[r][ranges] == runs[r].size()).
  std::vector<std::vector<std::size_t>> cut;
};

/// Choose key-range boundaries for merging `runs` range by range. Boundary
/// prefixes are picked from per-run quantile candidates (positions
/// j*size/K of each non-empty run), pooled, sorted, and sampled evenly —
/// a pure function of the run contents and K. Entries with prefix <= the
/// boundary go left; equal full keys share a prefix, so a key group can
/// never straddle a range and range-concatenation order equals the single
/// merge's order exactly. The binary searches that locate cut positions
/// compare only the precomputed prefixes and are NOT counted as key
/// comparisons (DESIGN.md §15).
inline MergeRangePlan plan_merge_ranges(std::span<const std::span<const KVBatch::Entry>> runs,
                                        std::size_t total, std::size_t min_split) {
  MergeRangePlan plan;
  plan.ranges = run_split_count(total, min_split);
  const std::size_t K = plan.ranges;

  std::vector<std::uint64_t> bounds(K - 1);
  if (K > 1) {
    std::vector<std::uint64_t> candidates;
    candidates.reserve(runs.size() * (K - 1));
    for (const auto& run : runs) {
      if (run.empty()) continue;
      for (std::size_t j = 1; j < K; ++j) candidates.push_back(run[run.size() * j / K].prefix);
    }
    std::sort(candidates.begin(), candidates.end());
    for (std::size_t j = 1; j < K; ++j) bounds[j - 1] = candidates[candidates.size() * j / K];
  }

  plan.cut.resize(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    auto& cut = plan.cut[r];
    cut.resize(K + 1);
    cut[0] = 0;
    cut[K] = runs[r].size();
    for (std::size_t j = 0; j + 1 < K; ++j) {
      // First entry with prefix > bounds[j]; bounds are non-decreasing, so
      // cuts are too.
      const auto it =
          std::upper_bound(runs[r].begin() + static_cast<std::ptrdiff_t>(cut[j]), runs[r].end(),
                           bounds[j], [](std::uint64_t b, const KVBatch::Entry& e) {
                             return b < e.prefix;
                           });
      cut[j + 1] = static_cast<std::size_t>(it - runs[r].begin());
    }
  }
  return plan;
}

/// Merges over more entries than this are cut into key-ranges that are
/// merged one after another (ReduceMerge); smaller ones are one range.
/// Real jobs sit on both sides: Wordcount's reduce merges over 64 MiB of
/// text hold millions of entries, a clustering iteration's a few hundred.
inline constexpr std::size_t kMergeRangeSplitMin = std::size_t{1} << 17;

/// Pull-based k-way merge of key-sorted runs. next() returns the runs'
/// entries in key order, ties to the earlier run, then input order within a
/// run — exactly the order a stable sort of the runs' concatenation
/// produces, so outputs stay byte-identical to the reference path — and
/// nullptr once every run is drained. A hand-rolled binary heap keeps
/// comparisons(), the key comparisons made so far, a deterministic function
/// of the input; one non-empty run merges with none. The cursor keeps only
/// run bounds: the entries must outlive it.
class MergeCursor {
 public:
  explicit MergeCursor(std::span<const std::span<const KVBatch::Entry>> runs) {
    heap_.reserve(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (!runs[r].empty()) heap_.push_back({runs[r].data(), runs[r].data() + runs[r].size(), r});
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }

  const KVBatch::Entry* next() {
    if (heap_.empty()) return nullptr;
    Head& top = heap_[0];
    const KVBatch::Entry* e = top.cur++;
    if (top.cur == top.end) {
      top = heap_.back();
      heap_.pop_back();
    }
    if (heap_.size() > 1) sift_down(0);
    return e;
  }

  std::int64_t comparisons() const { return comparisons_; }

 private:
  struct Head {
    const KVBatch::Entry* cur;
    const KVBatch::Entry* end;
    std::size_t run;
  };

  bool less(const Head& x, const Head& y) {
    ++comparisons_;
    const int c = compare_entries(*x.cur, *y.cur);
    return c != 0 ? c < 0 : x.run < y.run;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && less(heap_[l], heap_[best])) best = l;
      if (r < n && less(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Head> heap_;
  std::int64_t comparisons_ = 0;
};

/// One reduce task's merged input: the key ranges of plan_merge_ranges,
/// each merged by its own MergeCursor, one after another. next() returns
/// the same entries in the same order as one MergeCursor over all runs,
/// since no key group straddles two ranges. comparisons() is the sum over
/// the ranges; a run with no entries in a range stays out of that range's
/// heap, so the sum can be lower than one heap's count (DESIGN.md §15).
class ReduceMerge {
 public:
  explicit ReduceMerge(std::span<const std::span<const KVBatch::Entry>> runs,
                       std::size_t min_split = kMergeRangeSplitMin)
      : runs_(runs.begin(), runs.end()),
        plan_(plan_merge_ranges(runs, total_entries(runs), min_split)),
        cursor_(range(0)) {}

  const KVBatch::Entry* next() {
    const KVBatch::Entry* e = cursor_.next();
    while (e == nullptr && range_ + 1 < plan_.ranges) {
      done_comparisons_ += cursor_.comparisons();
      cursor_ = MergeCursor(range(++range_));
      e = cursor_.next();
    }
    return e;
  }

  std::int64_t comparisons() const { return done_comparisons_ + cursor_.comparisons(); }

 private:
  static std::size_t total_entries(std::span<const std::span<const KVBatch::Entry>> runs) {
    std::size_t total = 0;
    for (const auto& run : runs) total += run.size();
    return total;
  }

  std::vector<std::span<const KVBatch::Entry>> range(std::size_t j) const {
    std::vector<std::span<const KVBatch::Entry>> sub(runs_.size());
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      sub[r] = runs_[r].subspan(plan_.cut[r][j], plan_.cut[r][j + 1] - plan_.cut[r][j]);
    }
    return sub;
  }

  std::vector<std::span<const KVBatch::Entry>> runs_;
  MergeRangePlan plan_;
  std::size_t range_ = 0;
  MergeCursor cursor_;
  std::int64_t done_comparisons_ = 0;
};

}  // namespace vhadoop::mapreduce
