#include "workloads/wordcount.hpp"

#include "mapreduce/stock_reducers.hpp"

namespace vhadoop::workloads {

void WordcountMapper::map(std::string_view, std::string_view value, mapreduce::Context& ctx) {
  std::size_t i = 0;
  while (i < value.size()) {
    while (i < value.size() && (value[i] == ' ' || value[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < value.size() && value[j] != ' ' && value[j] != '\t') ++j;
    if (j > i) ctx.emit(std::string(value.substr(i, j - i)), mapreduce::encode_i64(1));
    i = j;
  }
}

mapreduce::JobSpec wordcount_job(int num_reduces, bool use_combiner) {
  mapreduce::JobSpec spec;
  spec.config.name = "wordcount";
  spec.config.num_reduces = num_reduces;
  spec.config.use_combiner = use_combiner;
  // Tokenize + Writable serialization runs at ~50-70 MB/s per 2.4 GHz
  // core, so a cluster with 30 map slots demands several hundred MB/s of
  // input — far beyond the NFS data path. Wordcount on this testbed is
  // therefore I/O-bound (the regime the paper's Fig. 2 discussion
  // describes), not CPU-bound.
  spec.config.cost.map_cpu_per_byte = 1.5e-8;
  spec.config.cost.map_cpu_per_record = 4e-7;
  spec.config.cost.reduce_cpu_per_record = 4e-7;
  spec.config.cost.reduce_cpu_per_byte = 1e-8;
  spec.mapper = [] { return std::make_unique<WordcountMapper>(); };
  spec.reducer = [] { return std::make_unique<mapreduce::LongSumReducer>(); };
  spec.combiner = [] { return std::make_unique<mapreduce::LongSumReducer>(); };
  return spec;
}

}  // namespace vhadoop::workloads
