#pragma once

// Shared pieces of vhbench: the host stopwatch, the metric lists
// each workload fills, and the Workload interface the run loop in main.cpp
// drives. Every host-time measurement of the benchmark goes through Clock
// below; nothing here feeds the simulation.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU seconds of this process, all threads. With paravirtual steal
/// accounting the guest kernel leaves out time the hypervisor took from its
/// vCPUs, which wall time cannot.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time since construction.
class Stopwatch {
 public:
  double wall_s() const { return seconds_since(wall0_); }
  double cpu_s() const { return process_cpu_s() - cpu0_; }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = process_cpu_s();
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999999);
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Named values with units, in insertion order (the order they print in).
class MetricList {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// 64-bit FNV-1a, for fingerprinting results that are too large to keep.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_u64(std::uint64_t v) {
    add(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  }
  std::string hex() const {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = digits[(h_ >> (4 * i)) & 0xf];
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one run of a workload accumulates: correctness checks and the
/// operation tallies behind `attempted` / `failed`.
class Outcome {
 public:
  /// Record a check; a failing one counts as one failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void operations(std::int64_t attempted_ops, std::int64_t failed_ops,
                  std::int64_t rejected_ops = 0) {
    attempted += attempted_ops;
    failed += failed_ops;
    rejected += rejected_ops;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;    ///< operations that failed (checks are added on top)
  std::int64_t rejected = 0;  ///< operations refused by design (admission control)
  std::vector<std::string> failures;
};

/// Command-line settings every workload sees.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< test-sized inputs
  bool corrupt = false;  ///< tamper with one result before it is checked
  std::string spans_dir;  ///< where a traced run writes its spans
};

/// One set-up plus one timed part: process CPU seconds and wall seconds.
struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  double setup_wall_s = 0.0;
  double run_wall_s = 0.0;

  void set_setup(const Stopwatch& sw) {
    setup_s = sw.cpu_s();
    setup_wall_s = sw.wall_s();
  }
  void set_run(const Stopwatch& sw) {
    run_s = sw.cpu_s();
    run_wall_s = sw.wall_s();
  }
  /// Exact identity of the results: equal across every iteration of one
  /// seed, traced or not.
  std::string fingerprint;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Fewest iterations a run makes, whatever --seconds says.
  virtual int min_iterations(bool traced) const = 0;
  virtual Iteration iterate(bool traced) = 0;
  /// End-to-end metrics beyond setup_s / run_s, over every untraced iteration.
  virtual void end_to_end(MetricList& out) const = 0;
  /// Per-layer metrics over the traced iterations.
  virtual void layers(MetricList& out) const = 0;
  /// Spans one traced iteration records.
  virtual std::int64_t spans_per_iteration() const = 0;
  /// Write the last traced iteration's spans; returns the path written.
  virtual std::string write_spans(const std::string& path) const = 0;
};

std::unique_ptr<Workload> make_sim_scale(const Options& opts, Outcome& outcome);
std::unique_ptr<Workload> make_sim_tenant_day(const Options& opts, Outcome& outcome);
std::unique_ptr<Workload> make_local_wordcount(const Options& opts, Outcome& outcome);
std::unique_ptr<Workload> make_ml_clustering(const Options& opts, Outcome& outcome);

}  // namespace perfbench
