#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/kv.hpp"

namespace vhadoop::mapreduce {

/// Hadoop's stock reduce functions (`org.apache.hadoop.mapreduce.lib`),
/// written once for every job that needs one. Both emit the key view they
/// are given; the Context copies it once, into its arena or into the
/// owning output record.

/// Emits every value of a key unchanged, in the order it arrives.
class IdentityReducer : public Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Context& ctx) override {
    for (const std::string_view v : values) ctx.emit(key, v);
  }
};

/// Sums a key's `encode_i64` counts into one record; also the combiner of
/// the counting jobs (Wordcount, Grep's search).
class LongSumReducer : public Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Context& ctx) override {
    std::int64_t sum = 0;
    for (const std::string_view v : values) sum += decode_i64(v);
    ctx.emit(key, encode_i64(sum));
  }
};

}  // namespace vhadoop::mapreduce
