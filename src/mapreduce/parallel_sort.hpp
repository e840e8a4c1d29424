#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/thread_pool.hpp"

namespace vhadoop::mapreduce {

/// Parallel counterparts of the kv_batch.hpp sort/merge primitives.
///
/// Determinism contract (DESIGN.md §15): every *split decision* below — how
/// many runs a sort is cut into, where run boundaries fall, which key-range
/// a merge is divided at — is a pure function of the data and the tuning
/// thresholds, never of the thread count or execution schedule. Workers
/// write comparison tallies into disjoint per-unit slots that are summed in
/// fixed index order afterwards, so the counters bench/ml_scaling gates on
/// are bit-identical whether a section ran on 1 thread or 16.

/// Number of sorted runs (or merge key-ranges) a unit of `n` entries is cut
/// into: the smallest power of two K with n <= K * threshold, capped at 64.
/// K == 1 means "stay serial". Pure function of (n, threshold).
inline std::size_t run_split_count(std::size_t n, std::size_t threshold) {
  constexpr std::size_t kMaxRuns = 64;
  std::size_t k = 1;
  while (k < kMaxRuns && n > k * threshold) k *= 2;
  return k;
}

/// Stable parallel sort of [a, a+n): the range is cut into
/// run_split_count(n, threshold) contiguous runs at fixed boundaries
/// lo_k = n*k/K, each run is sorted with the serial sort_entries_range
/// (radix-split inside when it holds more than kSortRadixCutoff entries),
/// then runs are merged pairwise level by level (ties take the left/earlier
/// run, so the result is the stable sort of the whole range, and the
/// comparison count is a pure function of the data and that split
/// structure). K == 1 degenerates to exactly sort_entries_range,
/// byte-for-byte identical comparisons included. Returns total key
/// comparisons.
inline std::int64_t parallel_sort_entries(KVBatch::Entry* a, std::size_t n,
                                          std::size_t threshold, WorkerPool& pool) {
  const std::size_t K = run_split_count(n, threshold);
  if (K == 1) {
    if (n <= kSortBaseRun) return sort_entries_range(a, n, nullptr);
    std::vector<KVBatch::Entry> scratch(n);
    return sort_entries_range(a, n, scratch.data());
  }
  std::vector<KVBatch::Entry> scratch(n);
  auto run_lo = [n, K](std::size_t k) { return n * k / K; };

  // Level 0: sort each run in place. Each unit touches only its own slice
  // of `a`, `scratch`, and `comps` — disjoint per-slot writes.
  std::vector<std::int64_t> comps(K, 0);
  pool.parallel_for(K, [&](std::size_t k) {
    const std::size_t lo = run_lo(k);
    comps[k] = sort_entries_range(a + lo, run_lo(k + 1) - lo, scratch.data() + lo);
  });
  std::int64_t total = 0;
  for (std::size_t k = 0; k < K; ++k) total += comps[k];

  // Merge levels: pairwise, ping-ponging between `a` and `scratch`. Every
  // level rewrites all n entries into dst (an unpaired tail block is
  // carried over by merge_adjacent_runs' n2 == 0 memcpy path), so buffer
  // parity is uniform. Summing each level's per-group tallies in group
  // order keeps the total schedule-independent.
  KVBatch::Entry* src = a;
  KVBatch::Entry* dst = scratch.data();
  bool in_a = true;
  for (std::size_t width = 1; width < K; width *= 2) {
    const std::size_t groups = (K + 2 * width - 1) / (2 * width);
    comps.assign(groups, 0);
    pool.parallel_for(groups, [&](std::size_t g) {
      const std::size_t r0 = g * 2 * width;
      const std::size_t r1 = std::min(r0 + width, K);
      const std::size_t r2 = std::min(r0 + 2 * width, K);
      const std::size_t lo = run_lo(r0);
      const std::size_t mid = run_lo(r1);
      const std::size_t hi = run_lo(r2);
      comps[g] = merge_adjacent_runs(src + lo, mid - lo, hi - mid, dst + lo);
    });
    for (std::size_t g = 0; g < groups; ++g) total += comps[g];
    std::swap(src, dst);
    in_a = !in_a;
  }
  if (!in_a) std::memcpy(a, src, n * sizeof(KVBatch::Entry));
  return total;
}

/// Split plan for one parallel k-way merge: key-range boundaries on the
/// 8-byte big-endian prefix plus, per input run, the cut positions that
/// realize them. Built deterministically from run contents only.
struct MergeRangePlan {
  std::size_t ranges = 1;
  /// cut[r][j]: first index of run r belonging to range j (cut[r][0] == 0,
  /// cut[r][ranges] == runs[r].size()).
  std::vector<std::vector<std::size_t>> cut;
  /// out_off[j]: offset of range j in the merged output (out_off[ranges] ==
  /// total entry count).
  std::vector<std::size_t> out_off;
};

/// Choose key-range boundaries for merging `runs` in parallel. Boundary
/// prefixes are picked from per-run quantile candidates (positions
/// j*size/K of each non-empty run), pooled, sorted, and sampled evenly —
/// a pure function of the run contents and K. Entries with prefix <= the
/// boundary go left; equal full keys share a prefix, so a key group can
/// never straddle a range and range-concatenation order equals the serial
/// merge order exactly. The binary searches that locate cut positions
/// compare only the precomputed prefixes and are NOT counted as key
/// comparisons (DESIGN.md §15).
inline MergeRangePlan plan_merge_ranges(std::span<const std::span<const KVBatch::Entry>> runs,
                                        std::size_t total, std::size_t min_split) {
  MergeRangePlan plan;
  plan.ranges = run_split_count(total, min_split);
  if (plan.ranges <= 1) return plan;
  const std::size_t K = plan.ranges;

  std::vector<std::uint64_t> candidates;
  candidates.reserve(runs.size() * (K - 1));
  for (const auto& run : runs) {
    if (run.empty()) continue;
    for (std::size_t j = 1; j < K; ++j) candidates.push_back(run[run.size() * j / K].prefix);
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<std::uint64_t> bounds(K - 1);
  for (std::size_t j = 1; j < K; ++j) bounds[j - 1] = candidates[candidates.size() * j / K];

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
  plan.out_off.assign(K + 1, 0);
  for (std::size_t j = 0; j < K; ++j) {
    std::size_t sz = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) sz += plan.cut[r][j + 1] - plan.cut[r][j];
    plan.out_off[j + 1] = plan.out_off[j] + sz;
  }
  return plan;
}

/// Parallel k-way merge of key-sorted runs into `out`: the key space is
/// split into fixed prefix ranges (plan_merge_ranges) and each range is
/// heap-merged independently into its disjoint output window. Below the
/// min_split cutoff (or for <= 1 runs) this is exactly the serial
/// merge_runs — same output, same comparison count. Ties within a range
/// resolve to the earlier run, so the concatenated result is byte-identical
/// to the serial merge at every split factor; only the comparison *count*
/// depends on the (data-pure) split structure. Returns key comparisons.
inline std::int64_t parallel_merge_runs(std::span<const std::span<const KVBatch::Entry>> runs,
                                        std::vector<KVBatch::Entry>& out, std::size_t min_split,
                                        WorkerPool& pool) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  if (total <= min_split || runs.size() <= 1) return merge_runs(runs, out);

  const MergeRangePlan plan = plan_merge_ranges(runs, total, min_split);
  if (plan.ranges <= 1) return merge_runs(runs, out);

  out.clear();
  out.resize(total);
  std::vector<std::int64_t> comps(plan.ranges, 0);
  pool.parallel_for(plan.ranges, [&](std::size_t j) {
    std::vector<std::span<const KVBatch::Entry>> sub(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r) {
      sub[r] = runs[r].subspan(plan.cut[r][j], plan.cut[r][j + 1] - plan.cut[r][j]);
    }
    comps[j] = merge_runs_into(sub, out.data() + plan.out_off[j]);
  });
  std::int64_t total_comps = 0;
  for (std::size_t j = 0; j < plan.ranges; ++j) total_comps += comps[j];
  return total_comps;
}

}  // namespace vhadoop::mapreduce
