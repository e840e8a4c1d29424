#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace vhadoop::mapreduce {

/// Arena-backed flat record batch — the zero-copy spine of the optimized
/// LocalJobRunner data path. All key/value bytes live in a small number of
/// contiguous chunks (never reallocated, so views stay valid for the life
/// of the batch); records are 24-byte POD entries that can be
/// partitioned, sorted and merged without touching the payload. Value
/// payloads are 8-byte aligned inside the arena so packed-double values can
/// be read in place via `decode_vec_view` (kv.hpp).
///
/// Chunk allocations are counted (`chunks_allocated`) — a deterministic
/// function of the pushed data, gated by bench/ml_scaling as the data
/// path's allocation metric.
class KVBatch {
 public:
  /// One record: key bytes at `data`, value bytes at `data + val_off()`
  /// (the value start is padded up to 8-byte alignment; the padding is
  /// never part of the record's logical bytes). `prefix` holds the first
  /// min(8, key_len) key bytes big-endian, zero-padded: whenever two
  /// prefixes differ, their numeric order equals the keys' lexicographic
  /// order, and on a tie `key_len` decides unless both keys are longer
  /// than 8 bytes, so the entry alone orders all keys of at most 8 bytes.
  struct Entry {
    const char* data = nullptr;
    std::uint32_t key_len = 0;
    std::uint32_t val_len = 0;
    std::uint64_t prefix = 0;

    std::string_view key() const { return {data, key_len}; }
    std::string_view value() const { return {data + val_off(), val_len}; }
    std::size_t val_off() const { return align8(key_len); }
    /// Logical record size (Hadoop-visible bytes; excludes alignment pad).
    std::size_t bytes() const { return std::size_t{key_len} + val_len; }
  };

  /// `chunk_bytes` is the steady-state chunk size; `first_chunk_bytes` the
  /// size of the first allocation. Chunks grow geometrically (doubling)
  /// from the first toward the steady-state size, so a mapper that emits
  /// 40 records costs a few KiB of arena rather than a full 64 KiB chunk —
  /// the dominant constant that made tiny jobs slower than the reference
  /// path (ROADMAP "win everywhere"). Allocation stays lazy: a batch that
  /// never sees a push never allocates.
  explicit KVBatch(std::size_t chunk_bytes = kDefaultChunk,
                   std::size_t first_chunk_bytes = kDefaultFirstChunk)
      : chunk_bytes_(chunk_bytes),
        first_chunk_bytes_(first_chunk_bytes < chunk_bytes ? first_chunk_bytes : chunk_bytes),
        next_chunk_bytes_(first_chunk_bytes_) {}

  KVBatch(KVBatch&&) = default;
  KVBatch& operator=(KVBatch&&) = default;
  KVBatch(const KVBatch&) = delete;
  KVBatch& operator=(const KVBatch&) = delete;

  static std::uint64_t key_prefix(std::string_view key) {
    if (key.size() >= 8) {
      // One 8-byte load + byte swap (GCC/Clang collapse the shift chain to
      // a single bswap) instead of the byte loop — this runs on every emit.
      std::uint64_t raw;
      std::memcpy(&raw, key.data(), 8);
      if constexpr (std::endian::native == std::endian::little) {
        raw = ((raw & 0x00000000000000ffULL) << 56) | ((raw & 0x000000000000ff00ULL) << 40) |
              ((raw & 0x0000000000ff0000ULL) << 24) | ((raw & 0x00000000ff000000ULL) << 8) |
              ((raw & 0x000000ff00000000ULL) >> 8) | ((raw & 0x0000ff0000000000ULL) >> 24) |
              ((raw & 0x00ff000000000000ULL) >> 40) | ((raw & 0xff00000000000000ULL) >> 56);
      }
      return raw;
    }
    std::uint64_t p = 0;
    for (std::size_t i = 0; i < key.size(); ++i) {
      p |= static_cast<std::uint64_t>(static_cast<unsigned char>(key[i])) << (56 - 8 * i);
    }
    return p;
  }

  void push(std::string_view key, std::string_view value) {
    if (key.size() > UINT32_MAX || value.size() > UINT32_MAX) {
      throw std::length_error("KVBatch: record exceeds 4 GiB field limit");
    }
    const std::size_t val_off = align8(key.size());
    // Pad the record end too, so the next record's value stays aligned.
    const std::size_t need = align8(val_off + value.size());
    char* p = allocate(need);
    if (!key.empty()) std::memcpy(p, key.data(), key.size());
    if (!value.empty()) std::memcpy(p + val_off, value.data(), value.size());
    Entry e;
    e.data = p;
    e.key_len = static_cast<std::uint32_t>(key.size());
    e.val_len = static_cast<std::uint32_t>(value.size());
    e.prefix = key_prefix(key);
    entries_.push_back(e);
    total_bytes_ += key.size() + value.size();
  }

  /// Pre-size the entry index (a capacity hint only: chunk accounting and
  /// every gated stat are unaffected).
  void reserve_entries(std::size_t n) { entries_.reserve(n); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(std::size_t i) const { return entries_[i]; }
  std::span<const Entry> entries() const { return entries_; }
  std::string_view key(std::size_t i) const { return entries_[i].key(); }
  std::string_view value(std::size_t i) const { return entries_[i].value(); }

  /// Sum of logical record bytes pushed so far.
  std::size_t total_bytes() const { return total_bytes_; }
  /// Arena chunks allocated — deterministic for a given push sequence.
  std::int64_t chunks_allocated() const { return static_cast<std::int64_t>(chunks_.size()); }

  /// Free the entry index but keep the arena chunks: entries copied out
  /// before (into partition lists, say) still read their key and value
  /// bytes. size() is 0 afterwards; total_bytes() and chunks_allocated()
  /// are unchanged.
  void release_index() { std::vector<Entry>().swap(entries_); }

  void clear() {
    chunks_.clear();
    entries_.clear();
    used_ = 0;
    cap_ = 0;
    total_bytes_ = 0;
    next_chunk_bytes_ = first_chunk_bytes_;  // chunk counts restart deterministically
  }

 private:
  static constexpr std::size_t kDefaultChunk = 64 * 1024;
  static constexpr std::size_t kDefaultFirstChunk = 1024;

  static std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

  char* allocate(std::size_t need) {
    // An empty first record (need == 0) still opens a chunk, so `data`
    // always points into the arena and chunks_.back() below is never empty.
    if (chunks_.empty() || used_ + need > cap_) {
      std::size_t sz = next_chunk_bytes_;
      if (sz < need) sz = need;  // oversized record gets its own chunk
      // for_overwrite: arena bytes are always written before they are read
      // (push memcpys key+value; alignment padding is never part of any
      // record's logical bytes), so zero-initializing every chunk would be
      // pure memset traffic — at 64 KiB per chunk it dominated small jobs.
      // operator new[] guarantees at least alignof(std::max_align_t), so
      // every chunk base (and every 8-aligned offset) is double-aligned.
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(sz));
      used_ = 0;
      cap_ = sz;
      next_chunk_bytes_ =
          next_chunk_bytes_ * 2 < chunk_bytes_ ? next_chunk_bytes_ * 2 : chunk_bytes_;
    }
    char* p = chunks_.back().get() + used_;
    used_ += need;
    return p;
  }

  std::size_t chunk_bytes_;
  std::size_t first_chunk_bytes_;
  std::size_t next_chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t used_ = 0;
  std::size_t cap_ = 0;
  std::vector<Entry> entries_;
  std::size_t total_bytes_ = 0;
};

/// Three-way entry comparison by key, the one key-order and key-equality
/// rule of the data path (spill sort, combiner re-sort, reduce merge and
/// grouping). Differing prefixes decide by one 64-bit compare. On a prefix
/// tie where either key is at most 8 bytes, that key lies wholly in its
/// prefix and so is a prefix of the other key: the shorter key sorts first
/// and equal lengths mean equal keys. Only two keys longer than 8 bytes
/// read the arena, and then only from byte 8 on.
inline int compare_entries(const KVBatch::Entry& a, const KVBatch::Entry& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix ? -1 : 1;
  if (a.key_len <= 8 || b.key_len <= 8) {
    return a.key_len == b.key_len ? 0 : (a.key_len < b.key_len ? -1 : 1);
  }
  const int c = a.key().substr(8).compare(b.key().substr(8));
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Stable 2-way merge of the adjacent sorted runs [left, left+n1) and
/// [left+n1, left+n1+n2) into `out`, with a branchless inner loop: the
/// winner of each comparison is selected by address arithmetic (compiles to
/// a conditional move), so the data-dependent compare never becomes an
/// unpredictable branch. Taking the left side on ties preserves stability,
/// and the comparison count stays a pure function of the input.
inline std::int64_t merge_adjacent_runs(const KVBatch::Entry* left, std::size_t n1,
                                        std::size_t n2, KVBatch::Entry* out) {
  const KVBatch::Entry* right = left + n1;
  std::int64_t comparisons = 0;
  std::size_t i = 0, j = 0, o = 0;
  while (i < n1 && j < n2) {
    ++comparisons;
    const bool take_right = compare_entries(right[j], left[i]) < 0;
    out[o++] = take_right ? right[j] : left[i];
    i += static_cast<std::size_t>(!take_right);
    j += static_cast<std::size_t>(take_right);
  }
  if (i < n1) std::memcpy(out + o, left + i, (n1 - i) * sizeof(KVBatch::Entry));
  else if (j < n2) std::memcpy(out + o, right + j, (n2 - j) * sizeof(KVBatch::Entry));
  return comparisons;
}

/// Insertion-sorted base-run length of the merge sort inside
/// sort_entries_range: ranges at or under this size never touch scratch.
inline constexpr std::size_t kSortBaseRun = 16;

/// Ranges of more entries than this are radix-split on their first four
/// key bytes before any key is compared (sort_entries_range). Below it the
/// counting passes cost more than the comparisons they save
/// (bench/micro_engine BM_SortEntries puts the crossover at 128-256).
inline constexpr std::size_t kSortRadixCutoff = 256;

namespace detail {

/// Bottom-up merge sort of [a, a+n) over 16-entry insertion-sorted base
/// runs (they save the four densest merge passes, the bulk of the 24-byte
/// entry copies); scratch holds at least n entries once n > kSortBaseRun.
/// Returns the key comparisons it made.
inline std::int64_t merge_sort_entries(KVBatch::Entry* a, std::size_t n,
                                       KVBatch::Entry* scratch) {
  constexpr std::size_t kBaseRun = kSortBaseRun;
  if (n < 2) return 0;
  std::int64_t comparisons = 0;
  for (std::size_t lo = 0; lo < n; lo += kBaseRun) {
    const std::size_t hi = lo + kBaseRun < n ? lo + kBaseRun : n;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const KVBatch::Entry e = a[i];
      std::size_t j = i;
      while (j > lo) {
        ++comparisons;
        if (compare_entries(e, a[j - 1]) < 0) {
          a[j] = a[j - 1];
          --j;
        } else {
          break;
        }
      }
      a[j] = e;
    }
  }
  if (n <= kBaseRun) return comparisons;
  KVBatch::Entry* src = a;
  KVBatch::Entry* dst = scratch;
  bool in_src = true;
  for (std::size_t width = kBaseRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = lo + width < n ? lo + width : n;
      const std::size_t hi = lo + 2 * width < n ? lo + 2 * width : n;
      comparisons += merge_adjacent_runs(src + lo, mid - lo, hi - mid, dst + lo);
    }
    std::swap(src, dst);
    in_src = !in_src;
  }
  if (!in_src) std::memcpy(a, src, n * sizeof(KVBatch::Entry));
  return comparisons;
}

}  // namespace detail

/// Stable sort of the range [a, a+n) by key (ties keep input order, like
/// Hadoop's stable spill sort), using caller-provided scratch of at least n
/// entries once n > kSortBaseRun; the result always lands back in `a`.
///
/// A range above kSortRadixCutoff is first radix-split: a stable LSD
/// counting sort on the top 32 bits of `Entry::prefix`, which hold the
/// key's first four bytes zero-padded, so their numeric order agrees with
/// key order wherever they differ. One read builds the four 256-bucket
/// histograms; the scatter passes run from key byte 3 to key byte 0,
/// alternating between `a` and `scratch`, and skip a byte whose histogram
/// puts every entry in one bucket. The merge sort then runs only inside
/// each run of entries whose first four bytes are equal. Counting passes
/// compare no keys, so the returned count holds the merge sort's
/// comparisons alone. Both halves are hand-rolled rather than
/// std::stable_sort so that count is a deterministic function of the input
/// on every platform/stdlib — bench/ml_scaling gates on it.
inline std::int64_t sort_entries_range(KVBatch::Entry* a, std::size_t n,
                                       KVBatch::Entry* scratch) {
  if (n <= kSortRadixCutoff) return detail::merge_sort_entries(a, n, scratch);
  const auto top = [](const KVBatch::Entry& e) {
    return static_cast<std::uint32_t>(e.prefix >> 32);
  };
  std::size_t hist[4][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t t = top(a[i]);
    for (unsigned b = 0; b < 4; ++b) ++hist[b][(t >> (8 * b)) & 0xff];
  }
  KVBatch::Entry* src = a;
  KVBatch::Entry* dst = scratch;
  for (unsigned b = 0; b < 4; ++b) {
    std::size_t* offset = hist[b];
    const unsigned shift = 8 * b;
    if (offset[(top(src[0]) >> shift) & 0xff] == n) continue;
    std::size_t sum = 0;
    for (std::size_t k = 0; k < 256; ++k) sum += std::exchange(offset[k], sum);
    for (std::size_t i = 0; i < n; ++i) dst[offset[(top(src[i]) >> shift) & 0xff]++] = src[i];
    std::swap(src, dst);
  }
  if (src != a) std::memcpy(a, src, n * sizeof(KVBatch::Entry));
  std::int64_t comparisons = 0;
  for (std::size_t lo = 0; lo < n;) {
    std::size_t hi = lo + 1;
    while (hi < n && top(a[hi]) == top(a[lo])) ++hi;
    comparisons += detail::merge_sort_entries(a + lo, hi - lo, scratch + lo);
    lo = hi;
  }
  return comparisons;
}

/// Convenience wrapper over sort_entries_range that allocates its own
/// scratch (only when a merge pass or a radix split needs it).
inline std::int64_t sort_entries(std::vector<KVBatch::Entry>& entries) {
  const std::size_t n = entries.size();
  if (n <= kSortBaseRun) return sort_entries_range(entries.data(), n, nullptr);
  std::vector<KVBatch::Entry> scratch(n);
  return sort_entries_range(entries.data(), n, scratch.data());
}

}  // namespace vhadoop::mapreduce
