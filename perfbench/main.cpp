// vhbench — runs one benchmark workload and prints one JSON report line.
//
//   vhbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-dir <dir>] [--tiny] [--corrupt]
//
// Workloads: sim-scale-512, sim-tenant-day, local-wordcount,
// ml-paper-clustering. Each iteration is one set-up plus one timed part;
// iterations repeat until --seconds have passed and the workload's minimum
// count is reached. With --trace 1 every untraced iteration is followed by a
// traced one, and the two must produce identical results.
//
// --tiny shrinks the inputs for the benchmark's own tests; --corrupt tampers
// with one result before it is checked, so the tests can see a check trip.
// Exit status: 0 when every operation and check passed, 1 otherwise, 2 on
// bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const MetricList& list) {
  std::string out = "{";
  for (const auto& e : list.entries()) {
    if (out.size() > 1) out += ", ";
    out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

std::vector<double> column(const std::vector<Iteration>& its, double Iteration::*field) {
  std::vector<double> out;
  for (const Iteration& it : its) out.push_back(it.*field);
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <sim-scale-512|sim-tenant-day|local-wordcount|"
               "ml-paper-clustering> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-dir <dir>] [--tiny] [--corrupt]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-dir" && has_value) {
      opts.spans_dir = argv[++i];
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--corrupt") {
      opts.corrupt = true;
    } else {
      return usage(argv[0]);
    }
  }

  Outcome outcome;
  std::unique_ptr<Workload> workload;
  if (opts.workload == "sim-scale-512") workload = make_sim_scale(opts, outcome);
  if (opts.workload == "sim-tenant-day") workload = make_sim_tenant_day(opts, outcome);
  if (opts.workload == "local-wordcount") workload = make_local_wordcount(opts, outcome);
  if (opts.workload == "ml-paper-clustering") workload = make_ml_clustering(opts, outcome);
  if (!workload) return usage(argv[0]);

  std::vector<Iteration> untraced, traced;
  const Clock::time_point start = Clock::now();
  while (true) {
    untraced.push_back(workload->iterate(false));
    if (opts.trace) traced.push_back(workload->iterate(true));
    const int done = static_cast<int>(untraced.size());
    if (done >= workload->min_iterations(opts.trace) && seconds_since(start) >= opts.seconds) {
      break;
    }
  }
  const double measured_s = seconds_since(start);

  // One seed gives one result, whether traced or not.
  std::size_t mismatches = 0;
  for (const auto* its : {&untraced, &traced}) {
    for (const Iteration& it : *its) mismatches += it.fingerprint != untraced.front().fingerprint;
  }
  outcome.check(mismatches == 0, std::to_string(mismatches) +
                                     " iteration(s) differ from the first iteration's results");

  MetricList metrics;
  const double run_s = median(column(untraced, &Iteration::run_s));
  metrics.set("setup_s", median(column(untraced, &Iteration::setup_s)), "s");
  metrics.set("run_s", run_s, "s");
  metrics.set("setup_wall_s", median(column(untraced, &Iteration::setup_wall_s)), "s");
  metrics.set("run_wall_s", median(column(untraced, &Iteration::run_wall_s)), "s");
  workload->end_to_end(metrics);
  const auto failed = outcome.failed + static_cast<std::int64_t>(outcome.failures.size());
  const bool correct = failed == 0;
  const double attempted = static_cast<double>(std::max<std::int64_t>(1, outcome.attempted));
  metrics.set("failed_pct", 100.0 * static_cast<double>(failed + outcome.rejected) / attempted,
              "%");

  MetricList layers;
  std::string spans_file;
  if (opts.trace) {
    const double traced_run_s = median(column(traced, &Iteration::run_s));
    layers.set("traced_run_s", traced_run_s, "s");
    layers.set("trace_overhead_pct", 100.0 * (traced_run_s / run_s - 1.0), "%");
    layers.set("spans", static_cast<double>(workload->spans_per_iteration()), "count");
    workload->layers(layers);
    if (!opts.spans_dir.empty()) {
      spans_file = workload->write_spans(opts.spans_dir + "/" + opts.workload + "-seed" +
                                         std::to_string(opts.seed) + ".csv");
    }
  }

  const auto samples_of = [](const std::vector<Iteration>& its, double Iteration::*field) {
    std::string out = "[";
    for (const double v : column(its, field)) out += (out.size() > 1 ? ", " : "") + json_number(v);
    return out + "]";
  };
  const std::string samples =
      "{\"setup_s\": " + samples_of(untraced, &Iteration::setup_s) +
      ", \"run_s\": " + samples_of(untraced, &Iteration::run_s) +
      ", \"setup_wall_s\": " + samples_of(untraced, &Iteration::setup_wall_s) +
      ", \"run_wall_s\": " + samples_of(untraced, &Iteration::run_wall_s) +
      ", \"traced_run_s\": " + samples_of(traced, &Iteration::run_s) + "}";

  std::string failures = "[";
  for (const std::string& f : outcome.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"size\": %s, \"iterations\": %zu, "
      "\"traced_iterations\": %zu, \"measured_s\": %s, \"correct\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"rejected\": %lld, \"failures\": %s, \"metrics\": %s, "
      "\"layers\": %s, \"samples\": %s, \"spans_file\": %s, "
      "\"build\": {\"compiler\": %s, \"build_type\": %s}}\n",
      json_string(opts.workload).c_str(), static_cast<unsigned long long>(opts.seed),
      opts.trace ? 1 : 0, opts.tiny ? "\"tiny\"" : "\"full\"", untraced.size(), traced.size(),
      json_number(measured_s).c_str(), correct ? "true" : "false",
      static_cast<long long>(outcome.attempted), static_cast<long long>(failed),
      static_cast<long long>(outcome.rejected), failures.c_str(), json_metrics(metrics).c_str(),
      json_metrics(layers).c_str(), samples.c_str(), json_string(spans_file).c_str(),
      json_string(std::string("g++ ") + __VERSION__).c_str(),
      json_string(VHBENCH_BUILD_TYPE).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vhbench: %s\n", e.what());
    return 1;
  }
}
