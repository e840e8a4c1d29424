#include "workloads/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace vhadoop::workloads {

namespace {

constexpr const char* kHeader = "vhadoop-trace-v1";

struct Token {
  std::string text;
  int column = 0;  ///< 1-based column of the token's first character
};

/// Split a line on runs of spaces/tabs, keeping each token's column.
std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    tokens.push_back({line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return tokens;
}

/// Strict double parse: the whole token must be consumed and the value
/// finite (rejects "12x", "1e999", "nan").
bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  try {
    out = std::stod(s, &pos);
  } catch (...) {
    return false;
  }
  return pos == s.size() && std::isfinite(out);
}

bool parse_int(const std::string& s, int& out) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  try {
    out = std::stoi(s, &pos);
  } catch (...) {
    return false;
  }
  return pos == s.size();
}

bool family_from_string(const std::string& s, JobFamily& out) {
  if (s == "wordcount") out = JobFamily::Wordcount;
  else if (s == "terasort") out = JobFamily::Terasort;
  else if (s == "kmeans") out = JobFamily::Kmeans;
  else if (s == "mrbench") out = JobFamily::Mrbench;
  else return false;
  return true;
}

/// Shortest rendering that survives a parse round trip exactly; prefers
/// fixed notation for round values (to_chars emits "10", never "1e+01").
std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

const char* to_string(JobFamily family) {
  switch (family) {
    case JobFamily::Terasort: return "terasort";
    case JobFamily::Kmeans: return "kmeans";
    case JobFamily::Mrbench: return "mrbench";
    case JobFamily::Wordcount: break;
  }
  return "wordcount";
}

std::string TraceParseError::to_string() const {
  if (ok()) return "ok";
  return "line " + std::to_string(line) + ", col " + std::to_string(column) + ": " + message;
}

std::string WorkloadTrace::serialize() const {
  std::string out = kHeader;
  out += '\n';
  for (const TraceRecord& r : records) {
    out += format_double(r.arrival_seconds);
    out += ' ';
    out += r.tenant;
    out += ' ';
    out += r.queue;
    out += ' ';
    out += std::to_string(r.priority);
    out += ' ';
    out += format_double(r.deadline_seconds);
    out += ' ';
    out += to_string(r.family);
    out += ' ';
    out += format_double(r.input_mb);
    out += '\n';
  }
  return out;
}

TraceParseError parse_trace(const std::string& text, WorkloadTrace& out,
                            const std::vector<std::string>& allowed_queues) {
  out.records.clear();
  TraceParseError err;
  auto fail = [&err](int line, int column, std::string message) {
    err.line = line;
    err.column = column;
    err.message = std::move(message);
    return err;
  };

  int line_no = 0;
  bool saw_header = false;
  double prev_arrival = 0.0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol == std::string::npos ? std::string::npos
                                                                 : eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    // Comments and blank lines are free-form anywhere after the header.
    const std::size_t first = line.find_first_not_of(" \t");
    if (!saw_header) {
      if (line != kHeader) {
        return fail(line_no, 1, std::string("expected header '") + kHeader + "'");
      }
      saw_header = true;
      continue;
    }
    if (first == std::string::npos || line[first] == '#') continue;

    const std::vector<Token> tok = tokenize(line);
    if (tok.size() != 7) {
      return fail(line_no, 0,
                  "expected 7 fields (arrival tenant queue priority deadline family "
                  "input_mb), got " + std::to_string(tok.size()));
    }

    TraceRecord r;
    if (!parse_double(tok[0].text, r.arrival_seconds) || r.arrival_seconds < 0.0) {
      return fail(line_no, tok[0].column, "bad arrival time '" + tok[0].text + "'");
    }
    if (r.arrival_seconds < prev_arrival) {
      return fail(line_no, tok[0].column,
                  "arrival time goes backwards (" + tok[0].text + " after " +
                      format_double(prev_arrival) + ")");
    }
    r.tenant = tok[1].text;
    r.queue = tok[2].text;
    if (!allowed_queues.empty() &&
        std::find(allowed_queues.begin(), allowed_queues.end(), r.queue) ==
            allowed_queues.end()) {
      return fail(line_no, tok[2].column, "unknown queue '" + r.queue + "'");
    }
    if (!parse_int(tok[3].text, r.priority) || r.priority < 0 || r.priority > 9) {
      return fail(line_no, tok[3].column,
                  "bad priority '" + tok[3].text + "' (want integer in [0, 9])");
    }
    if (!parse_double(tok[4].text, r.deadline_seconds) || r.deadline_seconds < 0.0) {
      return fail(line_no, tok[4].column,
                  "bad deadline '" + tok[4].text + "' (want seconds >= 0; 0 = none)");
    }
    if (!family_from_string(tok[5].text, r.family)) {
      return fail(line_no, tok[5].column,
                  "unknown job family '" + tok[5].text +
                      "' (wordcount|terasort|kmeans|mrbench)");
    }
    if (!parse_double(tok[6].text, r.input_mb) || r.input_mb <= 0.0) {
      return fail(line_no, tok[6].column, "bad input size '" + tok[6].text + "' MB");
    }
    prev_arrival = r.arrival_seconds;
    out.records.push_back(std::move(r));
  }
  if (!saw_header) return fail(1, 1, std::string("expected header '") + kHeader + "'");
  return err;
}

mapreduce::SimJobSpec spec_for(const TraceRecord& record, std::uint64_t job_index) {
  mapreduce::SimJobSpec spec;
  spec.name = std::string(to_string(record.family)) + "-" + std::to_string(job_index);
  spec.queue = record.queue;
  spec.user = record.tenant;
  spec.priority = record.priority;
  spec.deadline_seconds = record.deadline_seconds;
  spec.output_path = "/out/trace-" + std::to_string(job_index);

  const double input_bytes = record.input_mb * sim::kMiB;
  const int maps = std::max(1, static_cast<int>(std::ceil(record.input_mb / 64.0)));
  const double bytes_per_map = input_bytes / maps;

  // Per-family cost model: seconds of map CPU per input MiB, shuffle
  // selectivity (map output / input), and reduce fan-in. Calibrated to the
  // shapes the paper's workloads produce through the measured bridge.
  double cpu_per_mb = 0.008, selectivity = 0.05, reduce_cpu = 0.3;
  int reduces = 1;
  switch (record.family) {
    case JobFamily::Wordcount:
      cpu_per_mb = 0.010;
      selectivity = 0.06;
      reduces = record.input_mb > 256 ? 2 : 1;
      break;
    case JobFamily::Terasort:
      cpu_per_mb = 0.006;
      selectivity = 1.0;  // identity map: everything shuffles
      reduce_cpu = 0.8;
      reduces = std::max(2, static_cast<int>(record.input_mb / 128.0));
      break;
    case JobFamily::Kmeans:
      cpu_per_mb = 0.030;  // distance computation dominates
      selectivity = 0.002; // centroid table only
      reduce_cpu = 0.2;
      reduces = 1;
      break;
    case JobFamily::Mrbench:
      cpu_per_mb = 0.004;
      selectivity = 0.01;
      reduce_cpu = 0.05;
      reduces = 1;
      break;
  }
  for (int m = 0; m < maps; ++m) {
    spec.maps.push_back({.input_bytes = bytes_per_map,
                         .cpu_seconds = cpu_per_mb * bytes_per_map / sim::kMiB,
                         .output_bytes = selectivity * bytes_per_map});
  }
  spec.reduces.assign(static_cast<std::size_t>(reduces),
                      {.cpu_seconds = reduce_cpu,
                       .output_bytes = selectivity * input_bytes /
                                       static_cast<double>(reduces)});
  return spec;
}

std::vector<std::string> generated_queues() { return {"interactive", "batch"}; }

WorkloadTrace generate_trace(const TraceGenConfig& config) {
  WorkloadTrace trace;
  if (config.num_jobs <= 0) return trace;
  sim::Rng rng(config.seed);
  sim::Rng arrivals = rng.fork(1);
  sim::Rng mix = rng.fork(2);

  const int interactive_tenants = std::max(
      1, std::min(config.num_tenants - 1,
                  static_cast<int>(std::lround(config.interactive_fraction *
                                               config.num_tenants))));

  // Arrival instants. Poisson: constant rate covering the horizon. Bursty:
  // the same mean rate, but gated through exponential ON/OFF phases — jobs
  // only arrive during ON windows, at a rate inflated by the duty cycle, so
  // queues build up in bursts the way real tenant traffic does.
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(config.num_jobs));
  const double mean_rate =
      static_cast<double>(config.num_jobs) / std::max(1.0, config.horizon_seconds);
  if (config.process == ArrivalProcess::Poisson) {
    double t = 0.0;
    for (int j = 0; j < config.num_jobs; ++j) {
      t += arrivals.exponential(mean_rate);
      at.push_back(t);
    }
  } else {
    const double duty = config.burst_on_seconds /
                        (config.burst_on_seconds + config.burst_off_seconds);
    const double on_rate = mean_rate / std::max(duty, 1e-9);
    double t = 0.0;
    double phase_end = arrivals.exponential(1.0 / config.burst_on_seconds);
    bool on = true;
    while (static_cast<int>(at.size()) < config.num_jobs) {
      if (on) {
        const double gap = arrivals.exponential(on_rate);
        if (t + gap < phase_end) {
          t += gap;
          at.push_back(t);
          continue;
        }
      }
      t = phase_end;
      on = !on;
      phase_end = t + arrivals.exponential(on ? 1.0 / config.burst_on_seconds
                                              : 1.0 / config.burst_off_seconds);
    }
  }

  for (int j = 0; j < config.num_jobs; ++j) {
    TraceRecord r;
    r.arrival_seconds = at[static_cast<std::size_t>(j)];
    const int tenant =
        static_cast<int>(mix.uniform_int(static_cast<std::uint64_t>(config.num_tenants)));
    r.tenant = "t";
    r.tenant += std::to_string(tenant);
    const bool interactive = tenant < interactive_tenants;
    if (interactive) {
      r.queue = "interactive";
      r.priority = 5 + static_cast<int>(mix.uniform_int(4));  // 5..8
      r.deadline_seconds = 30.0 + 30.0 * mix.uniform();       // 30..60 s SLO
      r.family = mix.uniform() < 0.7 ? JobFamily::Wordcount : JobFamily::Mrbench;
      r.input_mb = 16.0 + 112.0 * mix.uniform();              // 16..128 MB
    } else {
      r.queue = "batch";
      r.priority = static_cast<int>(mix.uniform_int(3));      // 0..2
      // Most batch jobs carry a loose SLO; a fifth run with none at all.
      r.deadline_seconds = mix.uniform() < 0.2 ? 0.0 : 600.0 + 600.0 * mix.uniform();
      r.family = mix.uniform() < 0.6 ? JobFamily::Terasort : JobFamily::Kmeans;
      r.input_mb = 128.0 + 384.0 * mix.uniform();             // 128..512 MB
    }
    trace.records.push_back(std::move(r));
  }
  return trace;
}

}  // namespace vhadoop::workloads
