#pragma once

#include <memory>

#include "mapreduce/job.hpp"

namespace vhadoop::workloads {

/// The canonical Wordcount job (paper Table I): each mapper tokenizes a
/// line and emits (word, 1); mapreduce::LongSumReducer, as combiner and
/// reducer, sums the counts per word.
class WordcountMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override;
};

/// Fully configured Wordcount JobSpec with cost coefficients calibrated for
/// JVM-era tokenization. The paper's description (Sec. III-A: "emits a
/// key/value pair of the word and 1; each reducer sums") has no combiner,
/// so that is the default; pass `use_combiner = true` for the
/// hadoop-examples variant.
mapreduce::JobSpec wordcount_job(int num_reduces, bool use_combiner = false);

}  // namespace vhadoop::workloads
