#include "mapreduce/local_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mapreduce/kv_batch.hpp"
#include "mapreduce/reduce_merge.hpp"
#include "mapreduce/thread_pool.hpp"

namespace vhadoop::mapreduce {

LocalJobRunner::LocalJobRunner(unsigned threads)
    : threads_(threads == 0 ? default_threads() : threads) {}

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

/// Group a key-ordered entry stream (equal keys are adjacent) and feed each
/// group to `reducer`, collecting output in `ctx`. `in.next()` yields the
/// entries in order, then nullptr. Key equality is compare_entries == 0, the
/// same rule that ordered the stream.
template <class Cursor>
void reduce_entries_into(Reducer& reducer, Cursor& in, Context& ctx) {
  reducer.setup(ctx);
  std::vector<std::string_view> values;
  const KVBatch::Entry* e = in.next();
  while (e != nullptr) {
    const KVBatch::Entry& first = *e;
    values.clear();
    do {
      values.push_back(e->value());
      e = in.next();
    } while (e != nullptr && compare_entries(*e, first) == 0);
    reducer.reduce(first.key(), values, ctx);
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
  WorkerPool& pool = WorkerPool::shared(threads_);

  // --- phase A: map + partition --------------------------------------------
  // One arena per map task; partition lists hold 24-byte entries, so the
  // partition -> sort -> combine pipeline never copies key/value payloads.
  // Sorting is deliberately NOT done here: in its own flat phase (B) every
  // partition of every map task is one unit of pool work, so the sorts
  // spread over the pool even when there are fewer map tasks than threads
  // (DESIGN.md §15).
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
    // The partition lists now hold every entry; from here on only the
    // arena's chunks are read, so its flat index (24 bytes per record)
    // need not live until the job ends.
    out.arena.release_index();
    if (spec.config.use_combiner) out.combined.resize(uR);
  });

  // --- phase B: spill sorts ------------------------------------------------
  // Every non-empty (map, reduce) partition is one unit, sorted whole by the
  // serial sort_entries; units run side by side on the pool, as Hadoop's map
  // tasks each sort their own spill. Comparison slots are per (m, p), so the
  // gated totals are a function of the data alone, whatever the thread
  // count or execution order.
  std::vector<std::pair<std::size_t, std::size_t>> units;  // (m, p)
  for (std::size_t m = 0; m < uS; ++m) {
    for (std::size_t p = 0; p < uR; ++p) {
      if (!map_out[m].parts[p].empty()) units.push_back({m, p});
    }
  }
  std::vector<std::int64_t> sort_comps(uS * uR, 0);
  std::vector<std::int64_t> combiner_chunks(uS * uR, 0);
  const auto sort_units = [&] {
    pool.parallel_for(units.size(), [&](std::size_t u) {
      const auto [m, p] = units[u];
      sort_comps[m * uR + p] += sort_entries(map_out[m].parts[p]);
    });
  };
  sort_units();

  // --- phase C: combiner ---------------------------------------------------
  if (spec.config.use_combiner) {
    pool.parallel_for(units.size(), [&](std::size_t u) {
      const auto [m, p] = units[u];
      auto& part = map_out[m].parts[p];
      auto combiner = spec.combiner();
      Context cctx;
      const std::span<const KVBatch::Entry> run = part;
      MergeCursor in({&run, 1});
      reduce_entries_into(*combiner, in, cctx);
      map_out[m].combined[p] = cctx.take_batch();
      const KVBatch& cb = map_out[m].combined[p];
      combiner_chunks[m * uR + p] = cb.chunks_allocated();
      part.assign(cb.entries().begin(), cb.entries().end());
      map_out[m].part_bytes[p] = static_cast<double>(cb.total_bytes());
    });
    // Combiners may emit in any order: re-sort the same units (the counts
    // accumulate on top of the spill-sort counts).
    sort_units();
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

  // --- phase E: reduce -----------------------------------------------------
  // One task per reduce partition, side by side on the pool. Each creates
  // its reducer and pulls the reducer's input straight from the per-map
  // sorted runs through ReduceMerge, as Hadoop's final merge feeds the
  // reduce task's iterator: no merged copy is written out. Ties resolve to
  // the earlier map then within-run order, which is exactly the order the
  // reference oracle's stable sort of the concatenation produces. A merge
  // runs on its task's thread (DESIGN.md §15).
  std::vector<TaskProfile> reduce_profiles(uR);
  std::vector<std::int64_t> merge_comparisons(uR, 0);
  std::vector<std::vector<KV>> reduce_out(uR);
  pool.parallel_for(uR, [&](std::size_t r) {
    auto reducer = spec.reducer();
    TaskProfile& prof = reduce_profiles[r];
    std::vector<std::span<const KVBatch::Entry>> runs;
    runs.reserve(uS);
    for (std::size_t m = 0; m < uS; ++m) {
      const auto& part = map_out[m].parts[r];
      prof.input_records += static_cast<std::int64_t>(part.size());
      prof.input_bytes += map_out[m].part_bytes[r];
      runs.push_back(part);
    }
    Context ctx;
    // Reduce output becomes JobResult::output (owning strings): materialize
    // directly rather than round-tripping every record through an arena.
    ctx.materialize_direct();
    ctx.reserve(static_cast<std::size_t>(prof.input_records));
    ReduceMerge merged(runs);
    reduce_entries_into(*reducer, merged, ctx);
    merge_comparisons[r] = merged.comparisons();
    // This partition's per-map runs are dead now; release them so the peak
    // footprint holds the runs of unfinished reduces only.
    for (std::size_t m = 0; m < uS; ++m) std::vector<KVBatch::Entry>().swap(map_out[m].parts[r]);
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
