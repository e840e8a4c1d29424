// Equivalence suite for the arena-backed data path (DESIGN.md §11): the
// optimized LocalJobRunner must produce byte-identical job results to the
// reference oracle (testutil/reference_runner.hpp) — outputs, task profiles,
// shuffle accounting — across seeds, split counts, combiners, and
// adversarial keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/local_runner.hpp"
#include "mapreduce/reduce_merge.hpp"
#include "testutil/reference_runner.hpp"

namespace mr = vhadoop::mapreduce;
using vhadoop::testutil::ReferenceRunner;

namespace {

// --- deterministic pseudo-random bytes (no std::random in tests) ------------

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Key pool exercising every compare path: empty key, short keys, embedded
/// NULs, keys equal through their 8-byte prefix, and binary bytes. The
/// zero-padded prefix ties whenever one key is the other plus NULs, so the
/// pool holds such pairs at and around the 8-byte boundary, where
/// compare_entries decides by length or reads the tail from byte 8 on.
std::vector<std::string> tricky_keys() {
  return {
      "",
      std::string("\0", 1),
      "a",
      std::string("a\0", 2),
      std::string("a\0b", 3),
      "aaaaaaaa",
      std::string("aaaaaaaa\0", 9),
      "aaaaaaaab",
      "aaaaaaaac",
      "aaaaaaa",
      std::string(8, '\xff'),
      std::string(8, '\xff') + '\x01',
      std::string("\xff\x00\x7f", 3),
      "zebra",
      "zebr",
      "0123456789abcdef",
      "0123456789abcdeg",
      "prefix-shared-long-key-1",
      "prefix-shared-long-key-2",
  };
}

std::vector<mr::KV> random_records(std::uint64_t seed, std::size_t n) {
  const auto keys = tricky_keys();
  std::uint64_t s = seed;
  std::vector<mr::KV> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& key = keys[splitmix(s) % keys.size()];
    std::string value(splitmix(s) % 24, '\0');
    for (char& c : value) c = static_cast<char>(splitmix(s) & 0xff);
    records.push_back({key, std::move(value)});
  }
  return records;
}

// --- user code under test ----------------------------------------------------

/// Emits (key, value) back plus a per-key byte count — shuffle-heavy, and
/// the reducer output depends on merge order only through stable grouping.
class EchoCountMapper : public mr::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mr::Context& ctx) override {
    ctx.emit(key, value);
  }
};

class ConcatReducer : public mr::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::Context& ctx) override {
    std::string joined;
    for (auto v : values) {
      joined += v;
      joined += '|';
    }
    ctx.emit(key, joined);
  }
};

/// Combiner that emits groups in reverse key order — the runner must
/// re-sort combiner output (Hadoop allows arbitrary emit order).
class ReverseCombiner : public mr::Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::Context&) override {
    std::string joined;
    for (auto v : values) {
      joined += v;
      joined += '|';
    }
    buffered_.push_back({std::string(key), std::move(joined)});
  }
  void cleanup(mr::Context& ctx) override {
    for (auto it = buffered_.rbegin(); it != buffered_.rend(); ++it) {
      ctx.emit(it->key, it->value);
    }
  }

 private:
  std::vector<mr::KV> buffered_;
};

mr::JobSpec echo_spec(int reduces, bool combiner) {
  mr::JobSpec spec;
  spec.config.name = "echo";
  spec.config.num_reduces = reduces;
  spec.config.use_combiner = combiner;
  spec.mapper = [] { return std::make_unique<EchoCountMapper>(); };
  spec.reducer = [] { return std::make_unique<ConcatReducer>(); };
  if (combiner) spec.combiner = [] { return std::make_unique<ReverseCombiner>(); };
  return spec;
}

void expect_profiles_equal(const std::vector<mr::TaskProfile>& a,
                           const std::vector<mr::TaskProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].input_records, b[i].input_records) << "task " << i;
    EXPECT_EQ(a[i].input_bytes, b[i].input_bytes) << "task " << i;
    EXPECT_EQ(a[i].output_records, b[i].output_records) << "task " << i;
    EXPECT_EQ(a[i].output_bytes, b[i].output_bytes) << "task " << i;
    EXPECT_EQ(a[i].cpu_seconds, b[i].cpu_seconds) << "task " << i;
  }
}

/// Byte-identical equivalence: output records, profiles, shuffle matrix and
/// the mode-independent data-path stats must match exactly.
void expect_results_equal(const mr::JobResult& opt, const mr::JobResult& ref) {
  ASSERT_EQ(opt.output.size(), ref.output.size());
  for (std::size_t i = 0; i < opt.output.size(); ++i) {
    EXPECT_EQ(opt.output[i].key, ref.output[i].key) << "record " << i;
    EXPECT_EQ(opt.output[i].value, ref.output[i].value) << "record " << i;
  }
  expect_profiles_equal(opt.map_profiles, ref.map_profiles);
  expect_profiles_equal(opt.reduce_profiles, ref.reduce_profiles);
  EXPECT_EQ(opt.shuffle_matrix, ref.shuffle_matrix);
  EXPECT_EQ(opt.total_shuffle_bytes, ref.total_shuffle_bytes);
  EXPECT_EQ(opt.stats.map_emit_records, ref.stats.map_emit_records);
  EXPECT_EQ(opt.stats.map_emit_bytes, ref.stats.map_emit_bytes);
  EXPECT_EQ(opt.stats.shuffle_records, ref.stats.shuffle_records);
}

// --- KVBatch unit tests ------------------------------------------------------

TEST(KVBatch, ValuesAreEightByteAligned) {
  mr::KVBatch batch;
  const double payload[3] = {1.0, -2.5, 1e300};
  std::string value(sizeof(payload), '\0');
  std::memcpy(value.data(), payload, sizeof(payload));
  batch.push("k", value);          // 1-byte key forces padding
  batch.push("keykey", value);     // 6-byte key too
  batch.push("12345678", value);   // already aligned
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto v = batch.value(i);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % alignof(double), 0u) << i;
    EXPECT_EQ(v, std::string_view(value));
  }
}

TEST(KVBatch, TracksLogicalBytesAndChunks) {
  mr::KVBatch batch;
  EXPECT_EQ(batch.chunks_allocated(), 0);
  EXPECT_EQ(batch.total_bytes(), 0u);
  batch.push("key", "value");
  EXPECT_EQ(batch.total_bytes(), 8u);  // logical bytes exclude padding
  EXPECT_EQ(batch.chunks_allocated(), 1);
  // An oversized record gets its own chunk; existing views stay valid.
  const std::string_view first_key = batch.key(0);
  batch.push("big", std::string(256 * 1024, 'x'));
  EXPECT_EQ(batch.chunks_allocated(), 2);
  EXPECT_EQ(first_key, "key");
  EXPECT_EQ(batch.key(0), "key");
  batch.clear();
  EXPECT_EQ(batch.chunks_allocated(), 0);
  EXPECT_TRUE(batch.empty());
}

TEST(KVBatch, KeyPrefixOrderMatchesLexicographic) {
  const auto keys = tricky_keys();
  for (const auto& a : keys) {
    for (const auto& b : keys) {
      const std::uint64_t pa = mr::KVBatch::key_prefix(a);
      const std::uint64_t pb = mr::KVBatch::key_prefix(b);
      if (pa != pb) {
        // Differing prefixes must agree with full lexicographic order.
        EXPECT_EQ(pa < pb, a < b) << '"' << a << "\" vs \"" << b << '"';
      }
    }
  }
}

TEST(KVBatch, CompareEntriesMatchesLexicographic) {
  const auto keys = tricky_keys();
  mr::KVBatch batch;
  for (const auto& k : keys) batch.push(k, "");
  const auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      const std::string_view a = keys[i], b = keys[j];
      EXPECT_EQ(sign(mr::compare_entries(batch.entry(i), batch.entry(j))), sign(a.compare(b)))
          << "keys " << i << " vs " << j;
    }
  }
}

TEST(KVBatch, SortEntriesIsStable) {
  mr::KVBatch batch;
  const auto keys = tricky_keys();
  std::uint64_t s = 99;
  for (int i = 0; i < 500; ++i) {
    batch.push(keys[splitmix(s) % keys.size()], std::to_string(i));
  }
  std::vector<mr::KVBatch::Entry> entries(batch.entries().begin(), batch.entries().end());
  auto expected = entries;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.key() < b.key(); });
  const std::int64_t comparisons = mr::sort_entries(entries);
  EXPECT_GT(comparisons, 0);
  ASSERT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key(), expected[i].key()) << i;
    EXPECT_EQ(entries[i].value(), expected[i].value()) << i;  // ties keep input order
  }
}

/// tricky_keys() plus keys aimed at the radix split of sort_entries_range,
/// which buckets entries on their first four key bytes: keys sharing those
/// four and differing in bytes 4-7, keys sharing their first eight, keys
/// under four bytes with embedded NULs (their zero-padded bytes tie with
/// real NULs), and keys holding 0xff bytes (the top bucket).
std::vector<std::string> radix_keys() {
  auto keys = tricky_keys();
  for (const char* k : {"abcd", "abcdA", "abcdAzzz", "abcdB", "abcdefg", "abcdefgh",
                        "abcdefgh1", "abcdefgh2", "abcdefghZZZZ"}) {
    keys.emplace_back(k);
  }
  keys.emplace_back("abcd\0", 5);
  keys.emplace_back("abcdefgh\0", 9);
  keys.emplace_back("a\0\0\0\0", 5);
  keys.emplace_back("\0\0\0\0\x01", 5);
  keys.emplace_back("\xff\xff\xff\xff");
  keys.emplace_back("\xff\xff\xff\xff\xff");
  keys.emplace_back("\xff\xff\xff\xfe\xff");
  keys.emplace_back("a\xff");
  keys.emplace_back("\xff\0\xff", 3);
  return keys;
}

/// Sort a copy of `batch`'s entries with sort_entries and expect exactly
/// the std::stable_sort by key: values carry the push index, so a tie out
/// of input order shows. Returns the key comparisons sort_entries made.
std::int64_t expect_sorts_like_stable_sort(const mr::KVBatch& batch) {
  std::vector<mr::KVBatch::Entry> entries(batch.entries().begin(), batch.entries().end());
  auto expected = entries;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.key() < b.key(); });
  const std::int64_t comparisons = mr::sort_entries(entries);
  EXPECT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < entries.size() && i < expected.size(); ++i) {
    EXPECT_EQ(entries[i].key(), expected[i].key()) << "entry " << i << " of " << entries.size();
    EXPECT_EQ(entries[i].value(), expected[i].value()) << "entry " << i << " of " << entries.size();
  }
  return comparisons;
}

TEST(KVBatch, RadixSortMatchesStableSortAroundTheCutoff) {
  const auto keys = radix_keys();
  for (const std::size_t n :
       {mr::kSortRadixCutoff - 1, mr::kSortRadixCutoff, mr::kSortRadixCutoff + 1,
        std::size_t{4096}}) {
    mr::KVBatch batch;
    std::uint64_t s = 1000 + n;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push(keys[splitmix(s) % keys.size()], std::to_string(i));
    }
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_sorts_like_stable_sort(batch);
  }
}

TEST(KVBatch, RadixSortHandlesDegenerateRanges) {
  constexpr std::size_t n = 1000;
  {
    SCOPED_TRACE("all keys identical");
    mr::KVBatch batch;
    for (std::size_t i = 0; i < n; ++i) batch.push("same-key", std::to_string(i));
    expect_sorts_like_stable_sort(batch);
  }
  {
    // Every byte's histogram holds one bucket, so every counting pass is
    // skipped and one merge sort covers the whole range: exactly the
    // comparisons of the plain merge sort.
    SCOPED_TRACE("all keys share their first four bytes");
    mr::KVBatch batch;
    std::uint64_t s = 5;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push("abcd" + std::to_string(splitmix(s) % 97), std::to_string(i));
    }
    const std::int64_t comparisons = expect_sorts_like_stable_sort(batch);
    std::vector<mr::KVBatch::Entry> entries(batch.entries().begin(), batch.entries().end());
    std::vector<mr::KVBatch::Entry> scratch(n);
    EXPECT_EQ(comparisons, mr::detail::merge_sort_entries(entries.data(), n, scratch.data()));
  }
  {
    SCOPED_TRACE("already sorted");
    mr::KVBatch batch;
    for (std::size_t i = 0; i < n; ++i) {
      std::string key = std::to_string(100000 + i / 3);
      batch.push(key, std::to_string(i));
    }
    expect_sorts_like_stable_sort(batch);
  }
  {
    SCOPED_TRACE("reverse order");
    mr::KVBatch batch;
    for (std::size_t i = 0; i < n; ++i) {
      std::string key = std::to_string(200000 - i / 3);
      batch.push(key, std::to_string(i));
    }
    expect_sorts_like_stable_sort(batch);
  }
  {
    // Keys whose first four bytes all differ are placed by the counting
    // passes alone: no key comparison at all.
    SCOPED_TRACE("first four bytes all distinct");
    mr::KVBatch batch;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t v = static_cast<std::uint32_t>((n - i) * 2654435761u);
      const char key[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                           static_cast<char>(v >> 8), static_cast<char>(v)};
      batch.push(std::string_view(key, 4), std::to_string(i));
    }
    EXPECT_EQ(expect_sorts_like_stable_sort(batch), 0);
  }
}

TEST(KVBatch, ReleaseIndexKeepsArenaBytes) {
  mr::KVBatch batch;
  std::vector<std::string> keys, values;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back("key-" + std::to_string(i * 7919 % 5000));
    values.emplace_back(static_cast<std::size_t>(i % 40), static_cast<char>('a' + i % 26));
    batch.push(keys.back(), values.back());
  }
  const std::vector<mr::KVBatch::Entry> copies(batch.entries().begin(), batch.entries().end());
  const std::int64_t chunks = batch.chunks_allocated();
  const std::size_t bytes = batch.total_bytes();
  ASSERT_GT(chunks, 1);
  batch.release_index();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.chunks_allocated(), chunks);
  EXPECT_EQ(batch.total_bytes(), bytes);
  for (std::size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(copies[i].key(), keys[i]) << i;
    EXPECT_EQ(copies[i].value(), values[i]) << i;
  }
}

/// Every entry `in` yields, in order, after checking the heap's key
/// comparisons over the whole merge against `comparisons`.
std::vector<mr::KVBatch::Entry> drain(mr::MergeCursor in, std::int64_t comparisons) {
  std::vector<mr::KVBatch::Entry> out;
  while (const mr::KVBatch::Entry* e = in.next()) out.push_back(*e);
  EXPECT_EQ(in.comparisons(), comparisons);
  return out;
}

TEST(KVBatch, MergeRunsMatchesStableSortOfConcatenation) {
  mr::KVBatch batch;
  const auto keys = tricky_keys();
  std::uint64_t s = 7;
  std::vector<std::vector<mr::KVBatch::Entry>> runs(4);
  std::vector<mr::KVBatch::Entry> all;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 100; ++i) {
      batch.push(keys[splitmix(s) % keys.size()],
                 std::to_string(r) + ":" + std::to_string(i));
    }
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 100; ++i) {
      runs[r].push_back(batch.entry(r * 100 + static_cast<std::size_t>(i)));
    }
    mr::sort_entries(runs[r]);
    all.insert(all.end(), runs[r].begin(), runs[r].end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.key() < b.key(); });

  std::vector<std::span<const mr::KVBatch::Entry>> spans(runs.begin(), runs.end());
  const auto merged = drain(mr::MergeCursor(spans), 834);
  ASSERT_EQ(merged.size(), all.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].key(), all[i].key()) << i;
    EXPECT_EQ(merged[i].value(), all[i].value()) << i;
  }
}

TEST(KVBatch, MergeRunsHandlesEmptyAndSingleRuns) {
  EXPECT_TRUE(drain(mr::MergeCursor({}), 0).empty());
  const std::vector<std::span<const mr::KVBatch::Entry>> empties{{}, {}};
  EXPECT_TRUE(drain(mr::MergeCursor(empties), 0).empty());

  mr::KVBatch batch;
  batch.push("a", "1");
  batch.push("b", "2");
  std::vector<mr::KVBatch::Entry> run(batch.entries().begin(), batch.entries().end());
  std::vector<std::span<const mr::KVBatch::Entry>> spans{{}, run, {}};
  // Single non-empty run: no comparisons.
  const auto merged = drain(mr::MergeCursor(spans), 0);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key(), "a");
  EXPECT_EQ(merged[1].key(), "b");
}

// --- codec bounds (satellite: decode_* UB fix) -------------------------------

TEST(CodecBounds, TruncatedPayloadsThrow) {
  EXPECT_THROW(mr::decode_f64(""), std::invalid_argument);
  EXPECT_THROW(mr::decode_f64("abc"), std::invalid_argument);
  EXPECT_THROW(mr::decode_i64(""), std::invalid_argument);
  EXPECT_THROW(mr::decode_i64("1234567"), std::invalid_argument);
  EXPECT_THROW(mr::decode_vec("123"), std::invalid_argument);
  EXPECT_THROW(mr::decode_vec(std::string(15, 'x')), std::invalid_argument);
  std::vector<double> scratch;
  EXPECT_THROW(mr::decode_vec_view("1234567", scratch), std::invalid_argument);
}

TEST(CodecBounds, EmptyVecPayloadIsValid) {
  EXPECT_TRUE(mr::decode_vec("").empty());
  std::vector<double> scratch;
  EXPECT_TRUE(mr::decode_vec_view("", scratch).empty());
}

TEST(CodecBounds, RoundTripStillWorks) {
  EXPECT_EQ(mr::decode_f64(mr::encode_f64(-3.75)), -3.75);
  EXPECT_EQ(mr::decode_i64(mr::encode_i64(-42)), -42);
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_EQ(mr::decode_vec(mr::encode_vec(v)), v);
}

TEST(DecodeVecView, AlignedPayloadIsZeroCopy) {
  mr::KVBatch batch;
  const std::vector<double> v{3.0, 1.5, -8.25};
  batch.push("key", mr::encode_vec(v));
  std::vector<double> scratch;
  const auto view = mr::decode_vec_view(batch.value(0), scratch);
  ASSERT_EQ(view.size(), v.size());
  EXPECT_EQ(static_cast<const void*>(view.data()),
            static_cast<const void*>(batch.value(0).data()));  // no copy
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(view[i], v[i]);
}

TEST(DecodeVecView, UnalignedPayloadFallsBackToScratch) {
  alignas(8) char buf[17];
  const double x = 12345.678;
  std::memcpy(buf + 1, &x, sizeof(double));
  std::memcpy(buf + 9, &x, sizeof(double));
  std::vector<double> scratch;
  const auto view = mr::decode_vec_view({buf + 1, 16}, scratch);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.data(), scratch.data());  // copied into caller scratch
  EXPECT_EQ(view[0], x);
  EXPECT_EQ(view[1], x);
}

// --- optimized vs reference equivalence --------------------------------------

struct SweepCase {
  std::uint64_t seed;
  std::size_t records;
  int splits;
  int reduces;
  bool combiner;
};

class RunnerEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RunnerEquivalence, ByteIdenticalAcrossModes) {
  const SweepCase c = GetParam();
  const auto records = random_records(c.seed, c.records);
  const mr::LocalJobRunner optimized(4);
  const ReferenceRunner reference(4);
  const auto spec = echo_spec(c.reduces, c.combiner);
  const auto opt = optimized.run(spec, records, c.splits);
  const auto ref = reference.run(spec, records, c.splits);
  expect_results_equal(opt, ref);
  // The optimized path reports its deterministic counters.
  EXPECT_GT(opt.stats.arena_chunks, 0);
  if (c.records > 1) {
    EXPECT_GT(opt.stats.sort_comparisons, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MultiSeedSweep, RunnerEquivalence,
    ::testing::Values(SweepCase{1, 200, 4, 3, false}, SweepCase{2, 200, 4, 3, true},
                      SweepCase{3, 64, 1, 1, false}, SweepCase{4, 64, 7, 2, true},
                      SweepCase{5, 500, 8, 5, true}, SweepCase{6, 500, 3, 4, false},
                      SweepCase{7, 33, 16, 2, true}, SweepCase{8, 1, 4, 2, false},
                      // Spill partitions of about 1250 and 830 entries:
                      // past kSortRadixCutoff, so the radix split runs.
                      SweepCase{9, 5000, 2, 2, false}, SweepCase{10, 5000, 3, 2, true}),
    [](const auto& param_info) {
      const SweepCase& c = param_info.param;
      return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.records) + "_s" +
             std::to_string(c.splits) + "_r" + std::to_string(c.reduces) +
             (c.combiner ? "_comb" : "_plain");
    });

// --- edge cases, asserted identical across modes (satellite) -----------------

TEST(RunnerEdgeCases, EmptyInputIsIdenticalAcrossModes) {
  const mr::LocalJobRunner optimized(4);
  const ReferenceRunner reference(4);
  const auto spec = echo_spec(2, false);
  const std::vector<mr::KV> empty;
  const auto opt = optimized.run(spec, empty, 4);
  const auto ref = reference.run(spec, empty, 4);
  expect_results_equal(opt, ref);
  EXPECT_TRUE(opt.output.empty());
  EXPECT_EQ(opt.map_profiles.size(), 1u);  // clamped to one (empty) split
}

TEST(RunnerEdgeCases, MoreSplitsThanRecordsIsIdenticalAcrossModes) {
  const auto records = random_records(11, 3);
  const mr::LocalJobRunner optimized(4);
  const ReferenceRunner reference(4);
  const auto spec = echo_spec(2, false);
  const auto opt = optimized.run(spec, records, 64);
  const auto ref = reference.run(spec, records, 64);
  expect_results_equal(opt, ref);
  EXPECT_EQ(opt.map_profiles.size(), 3u);  // clamped to one split per record
}

TEST(RunnerEdgeCases, EmptyFirstRecordIsIdenticalAcrossModes) {
  // An empty key with an empty value needs no arena bytes; as a batch's
  // first push it must not touch the (still empty) chunk list.
  const std::vector<mr::KV> records{{"", ""}, {"a", ""}, {"", "x"}, {"", ""}};
  const mr::LocalJobRunner optimized(2);
  const ReferenceRunner reference(2);
  for (const bool combiner : {false, true}) {
    const auto spec = echo_spec(2, combiner);
    expect_results_equal(optimized.run(spec, records, 2), reference.run(spec, records, 2));
  }
}

TEST(RunnerEdgeCases, OutOfOrderCombinerIsIdenticalAcrossModes) {
  const auto records = random_records(12, 120);
  const mr::LocalJobRunner optimized(4);
  const ReferenceRunner reference(4);
  const auto spec = echo_spec(3, true);  // ReverseCombiner emits descending
  expect_results_equal(optimized.run(spec, records, 5), reference.run(spec, records, 5));
}

TEST(RunnerEdgeCases, OutOfRangePartitionerThrowsInBothModes) {
  const auto records = random_records(13, 10);
  auto spec = echo_spec(2, false);
  spec.partitioner = [](std::string_view, int) { return 7; };  // >= num_reduces
  const mr::LocalJobRunner optimized(1);
  const ReferenceRunner reference(1);
  EXPECT_THROW(optimized.run(spec, records, 2), std::out_of_range);
  EXPECT_THROW(reference.run(spec, records, 2), std::out_of_range);
}

// --- thread-count sweep (DESIGN.md §15) --------------------------------------
//
// The parallel data path's determinism contract: the JobResult — outputs,
// profiles, shuffle matrix, AND the sort/merge comparison + arena-chunk
// counters — is byte-identical at every thread count, and outputs/profiles
// always match the reference oracle.

void run_thread_sweep(const std::vector<mr::KV>& records, int splits, int reduces,
                      bool combiner) {
  const auto spec = echo_spec(reduces, combiner);
  const ReferenceRunner reference(4);
  const auto ref = reference.run(spec, records, splits);
  std::optional<mr::JobResult> first;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const mr::LocalJobRunner runner(threads);
    const auto got = runner.run(spec, records, splits);
    expect_results_equal(got, ref);
    if (!first) {
      first = got;
    } else {
      // Counters must not depend on the thread count.
      EXPECT_EQ(got.stats.sort_comparisons, first->stats.sort_comparisons)
          << "threads " << threads;
      EXPECT_EQ(got.stats.merge_comparisons, first->stats.merge_comparisons)
          << "threads " << threads;
      EXPECT_EQ(got.stats.arena_chunks, first->stats.arena_chunks) << "threads " << threads;
    }
  }
}

TEST(ThreadCountSweep, TinyJob) {
  run_thread_sweep(random_records(21, 32), 4, 3, /*combiner=*/true);
}

TEST(ThreadCountSweep, SkewedKeys) {
  // Half the records share one hot key; the rest spread over ~50 keys.
  std::uint64_t s = 22;
  std::vector<mr::KV> records;
  records.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    std::string key =
        i % 2 == 0 ? "skew-hot" : "skew-k" + std::to_string(splitmix(s) % 50);
    records.push_back({std::move(key), std::to_string(i)});
  }
  run_thread_sweep(records, 6, 4, /*combiner=*/false);
}

TEST(ThreadCountSweep, SingleHotKey) {
  // One key only: three of four reduce partitions are empty, the merge's
  // range-split boundary candidates all coincide.
  std::vector<mr::KV> records;
  records.reserve(2000);
  for (int i = 0; i < 2000; ++i) records.push_back({"only-key", std::to_string(i)});
  run_thread_sweep(records, 4, 4, /*combiner=*/true);
}

TEST(ThreadCountSweep, MillionRecords) {
  // Big enough (~8 MB) that each reduce merge (500k entries) is cut into
  // key ranges.
  std::uint64_t s = 24;
  std::vector<mr::KV> records;
  records.reserve(1000000);
  for (std::size_t i = 0; i < 1000000; ++i) {
    if (i % 16 == 0) {
      records.push_back({"hot", "h"});
    } else {
      std::string key = "k";
      key += std::to_string(splitmix(s) % 65536);
      records.push_back({std::move(key), "v"});
    }
  }
  run_thread_sweep(records, 8, 2, /*combiner=*/false);
}

// --- spill-sort contract (DESIGN.md §15) -------------------------------------

TEST(SpillSort, ComparisonsAreWholePartitionSerialSorts) {
  // Partitions of about 37,500 entries: the runner sorts each one whole
  // with sort_entries, so its count is the sum of those serial sorts at
  // every thread count. Each partition is rebuilt here from its split's
  // records in emit order.
  constexpr int kSplits = 4;
  constexpr int kReduces = 2;
  const auto records = random_records(31, 300000);
  std::int64_t expected = 0;
  std::size_t largest = 0;
  for (std::size_t m = 0; m < kSplits; ++m) {
    std::vector<mr::KVBatch> parts(kReduces);
    for (std::size_t i = records.size() * m / kSplits; i < records.size() * (m + 1) / kSplits;
         ++i) {
      parts[static_cast<std::size_t>(mr::default_partition(records[i].key, kReduces))].push(
          records[i].key, records[i].value);
    }
    for (const mr::KVBatch& part : parts) {
      std::vector<mr::KVBatch::Entry> entries(part.entries().begin(), part.entries().end());
      largest = std::max(largest, entries.size());
      expected += mr::sort_entries(entries);
    }
  }
  ASSERT_GT(largest, std::size_t{32768});
  for (const unsigned threads : {1u, 4u}) {
    const auto got = mr::LocalJobRunner(threads).run(echo_spec(kReduces, false), records, kSplits);
    EXPECT_EQ(got.stats.sort_comparisons, expected) << "threads " << threads;
  }
}

// --- streamed reduce (DESIGN.md §15) -----------------------------------------

/// What a reduce task handed its reducer: setup and cleanup calls, and each
/// reduce call's key with its number of values.
struct ReduceLog {
  int setups = 0;
  int cleanups = 0;
  std::vector<std::pair<std::string, std::size_t>> groups;
};

class LoggingReducer : public mr::Reducer {
 public:
  explicit LoggingReducer(ReduceLog& log) : log_(log) {}
  void setup(mr::Context&) override { ++log_.setups; }
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::Context&) override {
    log_.groups.emplace_back(std::string(key), values.size());
  }
  void cleanup(mr::Context&) override { ++log_.cleanups; }

 private:
  ReduceLog& log_;
};

TEST(StreamedReduce, OneReducerReadsEveryKeyRangeInOrder) {
  // One reduce partition past kMergeRangeSplitMin entries: its merge is cut
  // into key ranges, which the one reduce task merges one after another
  // into the same reducer.
  constexpr std::size_t kRecords = 300000;
  ASSERT_GE(mr::run_split_count(kRecords, mr::kMergeRangeSplitMin), 2u);
  std::uint64_t s = 51;
  std::vector<mr::KV> records;
  std::map<std::string, std::size_t> values_per_key;
  records.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    std::string key = "key-";
    key += std::to_string(splitmix(s) % 40000);
    ++values_per_key[key];
    records.push_back({std::move(key), "v"});
  }
  const std::vector<std::pair<std::string, std::size_t>> want(values_per_key.begin(),
                                                              values_per_key.end());
  std::optional<std::int64_t> merge_comparisons;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ReduceLog log;
    mr::JobSpec spec = echo_spec(1, /*combiner=*/false);
    spec.reducer = [&log] { return std::make_unique<LoggingReducer>(log); };
    const auto got = mr::LocalJobRunner(threads).run(spec, records, 4);
    EXPECT_EQ(log.setups, 1);
    EXPECT_EQ(log.cleanups, 1);
    const auto not_ascending = std::adjacent_find(
        log.groups.begin(), log.groups.end(),
        [](const auto& a, const auto& b) { return !(a.first < b.first); });
    EXPECT_EQ(not_ascending, log.groups.end());
    // Each key's one call holds every value of that key.
    EXPECT_EQ(log.groups, want);
    EXPECT_EQ(got.stats.shuffle_records, static_cast<std::int64_t>(kRecords));
    if (!merge_comparisons) merge_comparisons = got.stats.merge_comparisons;
    EXPECT_EQ(got.stats.merge_comparisons, *merge_comparisons);
  }
}

// --- shared worker pool (DESIGN.md §15) --------------------------------------

TEST(SharedPool, ConcurrentJobsMatchSerialRuns) {
  // Runners at the default thread count all borrow one process-wide pool;
  // two threads running jobs through it at once must each get exactly the
  // result (counters included) of a serial run of their own job.
  const auto records_a = random_records(41, 2000);
  const auto records_b = random_records(42, 1500);
  const auto spec_a = echo_spec(3, /*combiner=*/true);
  const auto spec_b = echo_spec(4, /*combiner=*/false);
  const mr::LocalJobRunner serial(1);
  const auto want_a = serial.run(spec_a, records_a, 6);
  const auto want_b = serial.run(spec_b, records_b, 5);

  constexpr int kRuns = 8;
  std::vector<mr::JobResult> got_a, got_b;
  auto run_many = [](const mr::JobSpec& spec, const std::vector<mr::KV>& records, int splits,
                     std::vector<mr::JobResult>& out) {
    for (int k = 0; k < kRuns; ++k) {
      const mr::LocalJobRunner runner(0);
      out.push_back(runner.run(spec, records, splits));
    }
  };
  std::thread ta(run_many, std::cref(spec_a), std::cref(records_a), 6, std::ref(got_a));
  std::thread tb(run_many, std::cref(spec_b), std::cref(records_b), 5, std::ref(got_b));
  ta.join();
  tb.join();

  for (const auto& [got, want] : {std::pair{&got_a, &want_a}, std::pair{&got_b, &want_b}}) {
    ASSERT_EQ(got->size(), static_cast<std::size_t>(kRuns));
    for (const mr::JobResult& r : *got) {
      expect_results_equal(r, *want);
      EXPECT_EQ(r.stats.sort_comparisons, want->stats.sort_comparisons);
      EXPECT_EQ(r.stats.merge_comparisons, want->stats.merge_comparisons);
      EXPECT_EQ(r.stats.arena_chunks, want->stats.arena_chunks);
    }
  }
}

}  // namespace
