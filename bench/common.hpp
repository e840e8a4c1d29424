#pragma once

// Shared helpers for the figure/table reproduction harnesses.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/platform.hpp"
#include "mapreduce/bridge.hpp"
#include "mapreduce/local_runner.hpp"
#include "obs/metrics.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

namespace vhadoop::bench {

/// Machine-readable per-run results next to every bench's human table.
///
/// Accumulates rows of (key, value) cells and writes
/// `$VHADOOP_BENCH_DIR/BENCH_<name>.json` (current directory when the env
/// var is unset) with the schema:
///
///   {"bench": "<name>", "schema": "vhadoop-bench-v1",
///    "rows": [{"col": value, ...}, ...],
///    "metrics": {<registry snapshot>}}        // optional
///
/// `metrics` is the obs::Registry snapshot of the most recently attached
/// platform, so a sweep's last configuration is inspectable in full.
class BenchResults {
 public:
  explicit BenchResults(std::string name) : name_(std::move(name)) {}

  /// Start a new row; fill it with col() calls.
  BenchResults& row() {
    rows_.emplace_back();
    return *this;
  }
  BenchResults& col(const std::string& key, double value) {
    rows_.back().push_back({key, true, value, {}});
    return *this;
  }
  BenchResults& col(const std::string& key, const std::string& value) {
    rows_.back().push_back({key, false, 0.0, value});
    return *this;
  }

  void attach_metrics(const obs::Registry& registry) { metrics_json_ = registry.to_json(); }
  /// Same, from a snapshot taken while the registry was still alive.
  void attach_metrics_json(std::string json) { metrics_json_ = std::move(json); }

  std::string to_json() const {
    std::string out = "{\"bench\": " + quoted(name_) +
                      ", \"schema\": \"vhadoop-bench-v1\", \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r) out += ", ";
      out += '{';
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        const Cell& cell = rows_[r][c];
        if (c) out += ", ";
        out += quoted(cell.key) + ": ";
        if (cell.numeric) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g", cell.num);
          out += buf;
        } else {
          out += quoted(cell.str);
        }
      }
      out += '}';
    }
    out += ']';
    if (!metrics_json_.empty()) out += ", \"metrics\": " + metrics_json_;
    out += "}\n";
    return out;
  }

  /// Write BENCH_<name>.json; returns the path written, empty on failure.
  std::string write() const {
    // vlint: allow(no-os-entropy) audited PR 8: output-directory override for CI harnesses; never feeds simulation state
    const char* dir = std::getenv("VHADOOP_BENCH_DIR");
    const std::string path =
        (dir && *dir ? std::string(dir) + "/" : std::string()) + "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return {};
    }
    out << to_json();
    std::printf("results: %s\n", path.c_str());
    return path;
  }

 private:
  struct Cell {
    std::string key;
    bool numeric;
    double num;
    std::string str;
  };

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out += '\\';
        out += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
        out += buf;
      } else {
        out += ch;
      }
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::vector<Cell>> rows_;
  std::string metrics_json_;
};

inline const char* placement_name(core::Placement p) {
  switch (p) {
    case core::Placement::Normal: return "normal";
    case core::Placement::CrossDomain: return "cross-domain";
    case core::Placement::Spread: return "spread";
  }
  return "unknown";
}

/// A staged Wordcount scenario: the corpus is split into ~file_mb files
/// (TOEFL reading materials are many small texts — one map per file), the
/// job is really executed once through the logical engine, and the measured
/// profiles replay against any cluster placement.
struct WordcountScenario {
  std::vector<std::string> paths;
  std::vector<double> file_bytes;
  mapreduce::JobResult measured;
  int num_reduces = 4;

  static WordcountScenario prepare(double total_mb, double file_mb = 16.0,
                                   int num_reduces = 4) {
    WordcountScenario s;
    s.num_reduces = num_reduces;
    workloads::TextCorpus corpus(20000);
    auto lines = corpus.generate(total_mb * sim::kMiB);

    const int files =
        std::max(1, static_cast<int>(total_mb / file_mb + 0.5));
    // One logical split per file so measured map profiles line up 1:1.
    mapreduce::LocalJobRunner local;
    s.measured = local.run(workloads::wordcount_job(num_reduces), lines, files);
    for (int f = 0; f < files; ++f) {
      s.paths.push_back("/in/toefl-" + std::to_string(f));
      s.file_bytes.push_back(s.measured.map_profiles[static_cast<std::size_t>(f)].input_bytes);
    }
    return s;
  }

  /// Upload every input file (from the namenode, as the paper's flow does).
  void stage(core::Platform& platform) const {
    for (std::size_t f = 0; f < paths.size(); ++f) {
      platform.upload(paths[f], file_bytes[f]);
    }
  }

  /// Run once on the platform; returns elapsed simulated seconds.
  double run(core::Platform& platform, const std::string& run_tag) const {
    auto spec = mapreduce::to_sim_job_files("wordcount", measured, paths, "/out/wc-" + run_tag);
    return platform.run_job(std::move(spec)).elapsed();
  }
};

/// Build the paper's 16-node cluster (1 namenode + 15 workers).
inline core::ClusterSpec paper_cluster(core::Placement placement) {
  core::ClusterSpec spec;
  spec.num_workers = 15;
  spec.placement = placement;
  return spec;
}

/// Whole-string parse of a number >= `min` for a command-line flag: "12x",
/// "", a sign on an unsigned type and out-of-range values all fail.
template <typename T>
bool parse_at_least(std::string_view text, T min, T& out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || ptr != last || value < min) return false;
  out = value;
  return true;
}

/// Comma-separated list of parse_at_least values; an empty entry fails.
template <typename T>
bool parse_list_at_least(std::string_view text, T min, std::vector<T>& out) {
  std::vector<T> values;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    T value{};
    if (!parse_at_least(text.substr(pos, comma - pos), min, value)) return false;
    values.push_back(value);
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  out = std::move(values);
  return true;
}

}  // namespace vhadoop::bench
