#include "mapreduce/local_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/parallel_sort.hpp"
#include "mapreduce/thread_pool.hpp"

namespace vhadoop::mapreduce {

LocalJobRunner::LocalJobRunner(unsigned threads, const RunnerTuning& tuning)
    : threads_(threads == 0 ? default_threads() : threads), tuning_(tuning) {}

double modeled_task_cpu(const CostModel& c, std::int64_t in_records, double in_bytes,
                        std::int64_t out_records, double out_bytes, bool is_map) {
  const double per_record = is_map ? c.map_cpu_per_record : c.reduce_cpu_per_record;
  const double per_byte = is_map ? c.map_cpu_per_byte : c.reduce_cpu_per_byte;
  // Input drives the dominant term; emitted data costs the same rates again
  // (serialization + sort feeding).
  return c.task_cpu_fixed + per_record * static_cast<double>(in_records) +
         per_byte * in_bytes + 0.5 * (per_record * static_cast<double>(out_records) +
                                      per_byte * out_bytes);
}

int clamp_splits(int num_splits, unsigned threads, std::size_t input_size) {
  int s = num_splits > 0 ? num_splits : static_cast<int>(threads);
  return std::max(1, std::min<int>(s, input_size == 0 ? 1 : static_cast<int>(input_size)));
}

namespace {

/// Group a key-sorted entry run (equal keys are adjacent) and feed each
/// group to `reducer`, collecting output in `ctx`. The equality test uses
/// the 8-byte prefix as a cheap pre-filter before the full key compare.
void reduce_entries_into(Reducer& reducer, std::span<const KVBatch::Entry> sorted, Context& ctx) {
  reducer.setup(ctx);
  std::size_t i = 0;
  std::vector<std::string_view> values;
  while (i < sorted.size()) {
    const KVBatch::Entry& first = sorted[i];
    const std::string_view key = first.key();
    std::size_t j = i;
    values.clear();
    while (j < sorted.size() && sorted[j].prefix == first.prefix && sorted[j].key() == key) {
      values.push_back(sorted[j].value());
      ++j;
    }
    reducer.reduce(key, values, ctx);
    i = j;
  }
  reducer.cleanup(ctx);
}

struct MapOutput {
  KVBatch arena;                                    // owns all mapper-emitted bytes
  std::vector<KVBatch> combined;                    // [reduce] combiner output arenas
  std::vector<std::vector<KVBatch::Entry>> parts;   // [reduce] -> sorted entries
  std::vector<double> part_bytes;                   // [reduce] -> shuffle bytes
  TaskProfile profile;
  std::int64_t emit_records = 0;
  std::int64_t emit_bytes = 0;
  std::int64_t sort_comparisons = 0;
  std::int64_t arena_chunks = 0;
};

/// One spill-sort work unit: a partition plus the flat slot its comparison
/// tally is accumulated into (slots are summed in fixed order afterwards,
/// so the gated counters never depend on the execution schedule).
struct SortUnit {
  std::vector<KVBatch::Entry>* part;
  std::size_t slot;
};

/// Sort every partition in `units`. Partitions at or under `threshold`
/// entries stay serial and are batched across the pool (one unit per
/// partition); larger ones run one at a time at top level so the run-split
/// parallel sort can use the pool *inside* the partition. Classification is
/// by size only — a pure data function — and either route produces the
/// comparison count of the same run_split_count structure, so counters are
/// identical across thread counts.
void sort_partition_units(const std::vector<SortUnit>& units, std::vector<std::int64_t>& comps,
                          std::size_t threshold, WorkerPool& pool) {
  std::vector<std::size_t> small_units, large_units;
  for (std::size_t u = 0; u < units.size(); ++u) {
    (units[u].part->size() <= threshold ? small_units : large_units).push_back(u);
  }
  pool.parallel_for(small_units.size(), [&](std::size_t si) {
    const SortUnit& unit = units[small_units[si]];
    comps[unit.slot] += sort_entries(*unit.part);
  });
  for (const std::size_t u : large_units) {
    const SortUnit& unit = units[u];
    comps[unit.slot] +=
        parallel_sort_entries(unit.part->data(), unit.part->size(), threshold, pool);
  }
}

}  // namespace

JobResult LocalJobRunner::run(const JobSpec& spec, std::span<const KV> input,
                              int num_splits) const {
  if (!spec.mapper) throw std::invalid_argument("JobSpec: missing mapper factory");
  if (!spec.reducer) throw std::invalid_argument("JobSpec: missing reducer factory");
  if (spec.config.use_combiner && !spec.combiner) {
    throw std::invalid_argument("JobSpec: use_combiner set but no combiner factory");
  }
  if (spec.config.num_reduces < 1) throw std::invalid_argument("JobSpec: num_reduces < 1");

  const int R = spec.config.num_reduces;
  const int S = clamp_splits(num_splits, threads_, input.size());
  const auto uR = static_cast<std::size_t>(R);
  const auto uS = static_cast<std::size_t>(S);
  // The default HashPartitioner is called once per emitted record; dispatch
  // to it directly (inlined) instead of through a std::function unless the
  // job installed a custom partitioner.
  const bool custom_partitioner = static_cast<bool>(spec.partitioner);
  const auto sort_threshold = static_cast<std::size_t>(tuning_.sort_parallel_threshold);
  const auto merge_min = static_cast<std::size_t>(tuning_.merge_range_split_min);
  WorkerPool& pool = WorkerPool::shared(threads_);

  // --- phase A: map + partition --------------------------------------------
  // One arena per map task; partition lists hold 24-byte entries, so the
  // partition -> sort -> combine pipeline never copies key/value payloads.
  // Sorting is deliberately NOT done here: hoisting it into its own flat
  // phase (B) lets a huge partition use the whole pool instead of being
  // stuck inside one map task's slot (DESIGN.md §15).
  std::vector<MapOutput> map_out(uS);
  const std::size_t n = input.size();
  pool.parallel_for(uS, [&](std::size_t m) {
    const std::size_t lo = n * m / uS;
    const std::size_t hi = n * (m + 1) / uS;
    auto split = input.subspan(lo, hi - lo);

    auto mapper = spec.mapper();
    Context ctx;
    mapper->setup(ctx);
    double in_bytes = 0.0;
    for (const KV& rec : split) {
      in_bytes += static_cast<double>(rec.bytes());
      mapper->map(rec.key, rec.value, ctx);
    }
    mapper->cleanup(ctx);

    MapOutput& out = map_out[m];
    out.arena = ctx.take_batch();
    out.emit_records = static_cast<std::int64_t>(out.arena.size());
    out.emit_bytes = static_cast<std::int64_t>(out.arena.total_bytes());
    out.arena_chunks = out.arena.chunks_allocated();
    out.profile.input_records = static_cast<std::int64_t>(split.size());
    out.profile.input_bytes = in_bytes;

    // Partition entries (not records) and account shuffle bytes in the same
    // pass — the reference oracle re-walks every record for the byte totals.
    // Each entry's slot is computed once into `slot`, counted, and the
    // partition lists reserved exactly: no growth reallocations and no
    // second hash pass.
    const auto entries = out.arena.entries();
    std::vector<std::uint32_t> slot(entries.size());
    std::vector<std::size_t> counts(uR, 0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::string_view key = entries[i].key();
      const int p = custom_partitioner ? spec.partitioner(key, R) : default_partition(key, R);
      if (p < 0 || p >= R) throw std::out_of_range("partitioner returned out-of-range index");
      slot[i] = static_cast<std::uint32_t>(p);
      ++counts[static_cast<std::size_t>(p)];
    }
    out.parts.assign(uR, {});
    out.part_bytes.assign(uR, 0.0);
    for (std::size_t r = 0; r < uR; ++r) out.parts[r].reserve(counts[r]);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out.parts[slot[i]].push_back(entries[i]);
      out.part_bytes[slot[i]] += static_cast<double>(entries[i].bytes());
    }
    if (spec.config.use_combiner) out.combined.resize(uR);
  });

  // --- phase B: spill sorts ------------------------------------------------
  // All S*R partitions as one flat unit list: small ones batch across the
  // pool, oversized ones get the run-split parallel sort. Comparison slots
  // are per-(m,p) and summed per map task in p order below, so the gated
  // totals match any execution order.
  std::vector<std::int64_t> sort_comps(uS * uR, 0);
  std::vector<std::int64_t> combiner_chunks(uS * uR, 0);
  {
    std::vector<SortUnit> units;
    units.reserve(uS * uR);
    for (std::size_t m = 0; m < uS; ++m) {
      for (std::size_t p = 0; p < uR; ++p) {
        if (!map_out[m].parts[p].empty()) units.push_back({&map_out[m].parts[p], m * uR + p});
      }
    }
    sort_partition_units(units, sort_comps, sort_threshold, pool);
  }

  // --- phase C: combiner ---------------------------------------------------
  if (spec.config.use_combiner) {
    std::vector<std::pair<std::size_t, std::size_t>> cunits;  // (m, p), non-empty only
    for (std::size_t m = 0; m < uS; ++m) {
      for (std::size_t p = 0; p < uR; ++p) {
        if (!map_out[m].parts[p].empty()) cunits.push_back({m, p});
      }
    }
    pool.parallel_for(cunits.size(), [&](std::size_t c) {
      const auto [m, p] = cunits[c];
      auto& part = map_out[m].parts[p];
      auto combiner = spec.combiner();
      Context cctx;
      reduce_entries_into(*combiner, part, cctx);
      map_out[m].combined[p] = cctx.take_batch();
      const KVBatch& cb = map_out[m].combined[p];
      combiner_chunks[m * uR + p] = cb.chunks_allocated();
      part.assign(cb.entries().begin(), cb.entries().end());
      map_out[m].part_bytes[p] = static_cast<double>(cb.total_bytes());
    });
    // Combiners may emit in any order: re-sort through the same routed
    // machinery (slots accumulate on top of the spill-sort counts).
    std::vector<SortUnit> units;
    units.reserve(cunits.size());
    for (const auto& [m, p] : cunits) {
      if (!map_out[m].parts[p].empty()) units.push_back({&map_out[m].parts[p], m * uR + p});
    }
    sort_partition_units(units, sort_comps, sort_threshold, pool);
  }

  // --- phase D: map profiles -----------------------------------------------
  // Same accumulation order as the reference oracle: partitions in p order,
  // entries in order, so the double sums are exactly equal.
  pool.parallel_for(uS, [&](std::size_t m) {
    MapOutput& out = map_out[m];
    for (std::size_t p = 0; p < uR; ++p) {
      for (const KVBatch::Entry& e : out.parts[p]) {
        ++out.profile.output_records;
        out.profile.output_bytes += static_cast<double>(e.bytes());
      }
      out.sort_comparisons += sort_comps[m * uR + p];
      out.arena_chunks += combiner_chunks[m * uR + p];
    }
    out.profile.cpu_seconds =
        modeled_task_cpu(spec.config.cost, out.profile.input_records, out.profile.input_bytes,
                    out.profile.output_records, out.profile.output_bytes, /*is_map=*/true);
  });

  // --- shuffle accounting --------------------------------------------------
  // Byte totals were accumulated during partitioning; the reference oracle
  // sums the same integral record sizes, so the doubles are exactly equal.
  JobResult result;
  result.shuffle_matrix.assign(uS, std::vector<double>(uR, 0.0));
  for (std::size_t m = 0; m < uS; ++m) {
    for (std::size_t r = 0; r < uR; ++r) {
      result.shuffle_matrix[m][r] = map_out[m].part_bytes[r];
      result.total_shuffle_bytes += map_out[m].part_bytes[r];
    }
  }

  // --- phase E: reduce merges ----------------------------------------------
  // True k-way merge of the per-map sorted runs; ties resolve to the earlier
  // map then within-run order, which is exactly the order the reference
  // oracle's stable sort of the concatenation produces. Small merges batch
  // across the pool; a merge over more than merge_range_split_min entries
  // runs at top level so the prefix-range parallel merge can use the pool —
  // one huge partition no longer serializes the reduce side.
  std::vector<std::vector<KVBatch::Entry>> merged(uR);
  std::vector<TaskProfile> reduce_profiles(uR);
  std::vector<std::int64_t> merge_comparisons(uR, 0);
  {
    std::vector<std::size_t> reduce_total(uR, 0);
    for (std::size_t r = 0; r < uR; ++r) {
      for (std::size_t m = 0; m < uS; ++m) reduce_total[r] += map_out[m].parts[r].size();
    }
    auto merge_one = [&](std::size_t r) {
      TaskProfile& prof = reduce_profiles[r];
      std::vector<std::span<const KVBatch::Entry>> runs;
      runs.reserve(uS);
      for (std::size_t m = 0; m < uS; ++m) {
        const auto& part = map_out[m].parts[r];
        prof.input_records += static_cast<std::int64_t>(part.size());
        prof.input_bytes += map_out[m].part_bytes[r];
        runs.push_back(part);
      }
      merge_comparisons[r] = parallel_merge_runs(runs, merged[r], merge_min, pool);
      // The per-map runs for this reduce are dead now; release them so the
      // peak footprint is merged + arenas, not 2x the entry arrays.
      for (std::size_t m = 0; m < uS; ++m) {
        auto& part = map_out[m].parts[r];
        part.clear();
        part.shrink_to_fit();
      }
    };
    std::vector<std::size_t> small_r, large_r;
    for (std::size_t r = 0; r < uR; ++r) {
      (reduce_total[r] <= merge_min ? small_r : large_r).push_back(r);
    }
    pool.parallel_for(small_r.size(), [&](std::size_t i) { merge_one(small_r[i]); });
    for (const std::size_t r : large_r) merge_one(r);
  }

  // --- phase F: reduce user code -------------------------------------------
  std::vector<std::vector<KV>> reduce_out(uR);
  pool.parallel_for(uR, [&](std::size_t r) {
    TaskProfile& prof = reduce_profiles[r];
    auto reducer = spec.reducer();
    Context ctx;
    // Reduce output becomes JobResult::output (owning strings): materialize
    // directly rather than round-tripping every record through an arena.
    ctx.materialize_direct();
    ctx.reserve(merged[r].size());
    reduce_entries_into(*reducer, merged[r], ctx);
    reduce_out[r] = ctx.take_output();
    for (const KV& rec : reduce_out[r]) {
      ++prof.output_records;
      prof.output_bytes += static_cast<double>(rec.bytes());
    }
    prof.cpu_seconds = modeled_task_cpu(spec.config.cost, prof.input_records, prof.input_bytes,
                                   prof.output_records, prof.output_bytes, /*is_map=*/false);
  });

  // Aggregate stats sequentially so the totals are deterministic.
  for (const MapOutput& m : map_out) {
    result.map_profiles.push_back(m.profile);
    result.stats.map_emit_records += m.emit_records;
    result.stats.map_emit_bytes += m.emit_bytes;
    result.stats.sort_comparisons += m.sort_comparisons;
    result.stats.arena_chunks += m.arena_chunks;
  }
  for (std::size_t r = 0; r < uR; ++r) {
    result.stats.shuffle_records += reduce_profiles[r].input_records;
    result.stats.merge_comparisons += merge_comparisons[r];
  }
  result.reduce_profiles = std::move(reduce_profiles);
  for (auto& part : reduce_out) {
    result.output.insert(result.output.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
  }
  return result;
}

}  // namespace vhadoop::mapreduce
