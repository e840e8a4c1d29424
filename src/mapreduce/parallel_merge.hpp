#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/thread_pool.hpp"

namespace vhadoop::mapreduce {

/// Parallel counterpart of the kv_batch.hpp k-way merge, used by the
/// reduce side of LocalJobRunner.
///
/// Determinism contract (DESIGN.md §15): the *split decision* below — how
/// many key-ranges a merge is cut into and where they fall — is a pure
/// function of the data and the size cutoff, never of the thread count or
/// execution schedule. Workers write comparison tallies into disjoint
/// per-range slots that are summed in fixed index order afterwards, so the
/// counters bench/ml_scaling gates on are bit-identical whether a merge ran
/// on 1 thread or 16.

/// Number of key-ranges a merge of `n` entries is cut into: the smallest
/// power of two K with n <= K * threshold, capped at 64. K == 1 means "stay
/// serial". Pure function of (n, threshold).
inline std::size_t run_split_count(std::size_t n, std::size_t threshold) {
  constexpr std::size_t kMaxRuns = 64;
  std::size_t k = 1;
  while (k < kMaxRuns && n > k * threshold) k *= 2;
  return k;
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

/// Merges over more entries than this are split into key-ranges merged in
/// parallel (LocalJobRunner's reduce side); smaller ones stay serial.
/// Real jobs sit on both sides: Wordcount's reduce merges over 64 MiB of
/// text hold millions of entries, a clustering iteration's a few hundred.
inline constexpr std::size_t kMergeRangeSplitMin = std::size_t{1} << 17;

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
