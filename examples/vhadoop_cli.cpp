// vhadoop_cli — command-line scenario driver, the `hadoop jar`-style entry
// point for quick experiments against the simulated testbed.
//
//   vhadoop_cli <workload> [--cross] [--workers N] [--mb SIZE]
//               [--scheduler=fifo|fair|capacity|deadline]
//               [--workload-trace=FILE] [--trace-gen=SPEC]
//               [--metrics-out=FILE] [--trace-out=FILE] [--spans-out=FILE]
//               [--timeseries-out=FILE]
//
// Malformed command lines are rejected with a diagnostic and exit status 2:
// unknown flags, flags missing their value, and non-positive numbers
// (including the jobs, horizon and tenants of --trace-gen).
//
// workloads: wordcount | terasort | dfsio | mrbench | pi | multi | trace
//
// --scheduler selects the JobTracker scheduling policy (default fifo); the
// `multi` workload submits a mixed job stream (one long sort behind a train
// of short jobs) so the policies can be compared head-to-head.
//
// The `trace` workload replays a multi-tenant day of traffic open-loop
// through per-tenant admission control and prints a per-tenant SLO report.
// --workload-trace=FILE replays a vhadoop-trace-v1 file; otherwise a trace
// is generated deterministically from --trace-gen=SPEC, a comma-separated
// list of jobs=N, horizon=SECONDS, tenants=N, process=poisson|bursty,
// seed=N, out=FILE (out= writes the trace file and exits without
// replaying). Example:
//   vhadoop_cli trace --trace-gen=jobs=2000,seed=7,out=day.trace
//   vhadoop_cli trace --workload-trace=day.trace --scheduler=deadline
//
// --metrics-out writes the platform metrics registry as JSON after the run;
// --trace-out enables timeline tracing and writes a Chrome trace-event file
// loadable in chrome://tracing or https://ui.perfetto.dev.
// --spans-out enables tracing too and writes the causal span graph
// ("vhadoop-spans-v1") for tools/trace_query: pipe it into
// `trace_query spans.json --critical-path --attribution` for per-job
// bottleneck attribution. --timeseries-out samples the standard platform
// probes once per simulated second and writes the ring buffers as JSON.
//
// Examples:
//   vhadoop_cli terasort --mb 800 --cross
//   vhadoop_cli wordcount --workers 7 --mb 64
//   vhadoop_cli wordcount --trace-out=trace.json --metrics-out=metrics.json
//   vhadoop_cli terasort --spans-out=spans.json --timeseries-out=series.json
//   vhadoop_cli pi
//   vhadoop_cli multi --scheduler=fair

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "mapreduce/local_runner.hpp"
#include "net/topology.hpp"
#include "workloads/dfsio.hpp"
#include "workloads/mrbench.hpp"
#include "workloads/pi_estimator.hpp"
#include "workloads/terasort.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/trace.hpp"
#include "workloads/trace_replay.hpp"
#include "workloads/wordcount.hpp"
#include "parse_positive.hpp"

using namespace vhadoop;
using examples::parse_positive;

namespace {

struct Options {
  std::string workload;
  bool cross = false;
  int workers = 15;
  double mb = 128.0;
  std::string metrics_out;
  std::string trace_out;
  std::string spans_out;
  std::string timeseries_out;
  std::string scheduler = "fifo";
  std::string workload_trace;
  std::string trace_gen;
  std::string topology = "single-switch";
  int racks = 2;
  int hosts_per_rack = 2;
};

int usage() {
  std::fprintf(stderr,
               "usage: vhadoop_cli <wordcount|terasort|dfsio|mrbench|pi|multi|trace> "
               "[--cross] [--workers N] [--mb SIZE] "
               "[--scheduler=fifo|fair|capacity|deadline] "
               "[--topology=single-switch|fat-tree|rotor] "
               "[--racks=N] [--hosts-per-rack=N] "
               "[--workload-trace=FILE] [--trace-gen=SPEC] "
               "[--metrics-out=FILE] [--trace-out=FILE] [--spans-out=FILE] "
               "[--timeseries-out=FILE]\n");
  return 2;
}

/// Whole-string parse of an unsigned number ("12x", "-1" and "" fail).
bool parse_unsigned(const std::string& text, std::uint64_t& out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

bool parse_text(const std::string& text, std::string& out) {
  out = text;
  return !text.empty();
}

/// Parse argv into `opt`. Returns false after printing a diagnostic for an
/// unknown flag, a flag without its value, or a non-positive number, so a
/// typo cannot silently run the default scenario.
bool parse(int argc, char** argv, Options& opt) {
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    // --workers N and --mb SIZE take the next argument as their value;
    // every other valued flag is spelled --name=VALUE.
    const std::string arg = argv[i];
    std::string name = arg, value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if ((arg == "--workers" || arg == "--mb") && i + 1 < argc) {
      value = argv[++i];
    }
    bool ok = true;
    if (arg == "--cross") {
      opt.cross = true;
    } else if (arg == "--workers") {
      ok = parse_positive(value, opt.workers);
    } else if (arg == "--mb") {
      ok = parse_positive(value, opt.mb);
    } else if (name == "--racks") {
      ok = parse_positive(value, opt.racks);
    } else if (name == "--hosts-per-rack") {
      ok = parse_positive(value, opt.hosts_per_rack);
    } else if (name == "--metrics-out") {
      ok = parse_text(value, opt.metrics_out);
    } else if (name == "--trace-out") {
      ok = parse_text(value, opt.trace_out);
    } else if (name == "--spans-out") {
      ok = parse_text(value, opt.spans_out);
    } else if (name == "--timeseries-out") {
      ok = parse_text(value, opt.timeseries_out);
    } else if (name == "--scheduler") {
      ok = parse_text(value, opt.scheduler);
    } else if (name == "--workload-trace") {
      ok = parse_text(value, opt.workload_trace);
    } else if (name == "--trace-gen") {
      ok = parse_text(value, opt.trace_gen);
    } else if (name == "--topology") {
      ok = parse_text(value, opt.topology);
    } else {
      std::fprintf(stderr, "vhadoop_cli: unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (!ok && value.empty()) {
      std::fprintf(stderr, "vhadoop_cli: %s needs a value\n", name.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "vhadoop_cli: %s needs a positive number, got '%s'\n", name.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

/// Parse a --trace-gen SPEC ("jobs=N,horizon=S,tenants=N,process=...,seed=N,
/// out=FILE"). Unknown keys and malformed numbers (jobs, horizon and tenants
/// must be positive, seed unsigned) are fatal so typos cannot silently
/// produce a default or degenerate trace. Returns false (with a message) on
/// a malformed spec.
bool parse_gen_spec(const std::string& spec, workloads::TraceGenConfig& gen,
                    std::string& out_file) {
  std::stringstream ss(spec);
  std::string kv;
  while (std::getline(ss, kv, ',')) {
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "vhadoop_cli: --trace-gen entry '%s' is not key=value\n", kv.c_str());
      return false;
    }
    const std::string key = kv.substr(0, eq), val = kv.substr(eq + 1);
    const char* need = nullptr;  // set when a numeric value is malformed
    if (key == "jobs") {
      if (!parse_positive(val, gen.num_jobs)) need = "a positive number";
    } else if (key == "horizon") {
      if (!parse_positive(val, gen.horizon_seconds)) need = "a positive number";
    } else if (key == "tenants") {
      if (!parse_positive(val, gen.num_tenants)) need = "a positive number";
    } else if (key == "seed") {
      if (!parse_unsigned(val, gen.seed)) need = "an unsigned number";
    } else if (key == "process") {
      if (val == "poisson") {
        gen.process = workloads::ArrivalProcess::Poisson;
      } else if (val == "bursty") {
        gen.process = workloads::ArrivalProcess::Bursty;
      } else {
        std::fprintf(stderr, "vhadoop_cli: unknown arrival process '%s'\n", val.c_str());
        return false;
      }
    } else if (key == "out") {
      out_file = val;
    } else {
      std::fprintf(stderr, "vhadoop_cli: unknown --trace-gen key '%s'\n", key.c_str());
      return false;
    }
    if (need != nullptr) {
      std::fprintf(stderr, "vhadoop_cli: --trace-gen %s needs %s, got '%s'\n", key.c_str(), need,
                   val.c_str());
      return false;
    }
  }
  return true;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "vhadoop_cli: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  if (!parse(argc, argv, opt)) return usage();

  const auto policy = mapreduce::scheduler_policy_from_string(opt.scheduler);
  if (!policy) {
    std::fprintf(stderr, "vhadoop_cli: unknown scheduler '%s' (fifo|fair|capacity|deadline)\n",
                 opt.scheduler.c_str());
    return 2;
  }

  const auto topology = net::topology_kind_from_string(opt.topology);
  if (!topology) {
    std::fprintf(stderr, "vhadoop_cli: unknown topology '%s' (single-switch|fat-tree|rotor)\n",
                 opt.topology.c_str());
    return 2;
  }

  // Checked before the cluster boots, like every other malformed flag.
  workloads::TraceGenConfig trace_gen;
  std::string trace_gen_out;
  if (!parse_gen_spec(opt.trace_gen, trace_gen, trace_gen_out)) return 2;

  core::TestbedConfig testbed;
  testbed.net.topology.kind = *topology;
  if (*topology != net::TopologyKind::SingleSwitch) {
    // Multi-rack testbed: the rack grid decides the host count, and VMs
    // spread round-robin so every rack actually hosts part of the cluster.
    testbed.net.topology.racks = opt.racks;
    testbed.net.topology.nodes_per_rack = opt.hosts_per_rack;
    testbed.num_hosts = opt.racks * opt.hosts_per_rack;
  }
  core::Platform platform(testbed);
  if (!opt.trace_out.empty() || !opt.spans_out.empty()) platform.enable_tracing();
  if (!opt.timeseries_out.empty()) platform.enable_timeseries(1.0);
  core::ClusterSpec spec;
  spec.num_workers = opt.workers;
  spec.placement = opt.cross ? core::Placement::CrossDomain : core::Placement::Normal;
  if (*topology != net::TopologyKind::SingleSwitch) spec.placement = core::Placement::Spread;
  spec.hadoop.scheduler = *policy;
  if (*policy == mapreduce::SchedulerPolicy::Capacity) {
    if (opt.workload == "trace") {
      // Generated traces route jobs to these two queues; interactive
      // traffic gets the larger guarantee.
      spec.hadoop.queues = {{"interactive", 0.6, 1.0, 1.0}, {"batch", 0.4, 1.0, 1.0}};
    } else {
      // Two demo queues: production owns 70% of the slots, adhoc the rest.
      spec.hadoop.queues = {{"prod", 0.7, 1.0, 1.0}, {"adhoc", 0.3, 0.5, 1.0}};
    }
  }
  try {
    platform.boot_cluster(spec);  // rejects clusters the testbed cannot host
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vhadoop_cli: cannot boot the cluster: %s\n", e.what());
    return 2;
  }
  std::printf("cluster: %d workers, %s placement, %s scheduler (boot %.0f s simulated)\n",
              opt.workers, opt.cross ? "cross-domain" : "normal",
              platform.runner().scheduler_name(), platform.engine().now());

  if (opt.workload == "wordcount") {
    workloads::TextCorpus corpus(20000);
    auto lines = corpus.generate(opt.mb * sim::kMiB);
    mapreduce::LocalJobRunner local;
    const int splits = std::max(1, static_cast<int>(opt.mb / 16.0));
    auto measured = local.run(workloads::wordcount_job(4), lines, splits);
    platform.upload("/in/corpus", mapreduce::serialized_bytes(lines));
    auto t = platform.run_measured("wordcount", measured, "/in/corpus", "/out/wc");
    std::printf("wordcount %.0f MB: %.1f s (%d/%zu data-local maps, %zu distinct words)\n",
                opt.mb, t.elapsed(), t.data_local_maps(), t.maps.size(),
                measured.output.size());
  } else if (opt.workload == "terasort") {
    workloads::TeraSort ts{.total_bytes = opt.mb * sim::kMiB, .num_reduces = 1};
    const double gen = platform.run_job(ts.sim_teragen("/t/in")).elapsed();
    const double sort = platform.run_job(ts.sim_terasort("/t/in", "/t/out")).elapsed();
    const double val = platform.run_job(ts.sim_teravalidate("/t/out")).elapsed();
    std::printf("terasort %.0f MB: gen %.1f s, sort %.1f s, validate %.1f s\n", opt.mb, gen,
                sort, val);
  } else if (opt.workload == "dfsio") {
    workloads::TestDfsIo io(platform.runner(), platform.hdfs(), 10,
                            opt.mb / 10.0 * sim::kMiB);
    workloads::TestDfsIo::Result wr, rd;
    io.run_write("/dfsio", [&](const workloads::TestDfsIo::Result& r) { wr = r; });
    io.run_read("/dfsio", [&](const workloads::TestDfsIo::Result& r) { rd = r; });
    platform.engine().run();
    std::printf("dfsio 10 x %.0f MB: write %.1f MB/s, read %.1f MB/s\n", opt.mb / 10.0,
                wr.throughput_mb_s(), rd.throughput_mb_s());
  } else if (opt.workload == "mrbench") {
    for (int maps = 1; maps <= 6; ++maps) {
      workloads::MrBench bench{.num_maps = maps, .num_reduces = 1};
      auto t = platform.run_job(bench.sim_job("/out/mrb-" + std::to_string(maps)));
      std::printf("mrbench maps=%d: %.2f s\n", maps, t.elapsed());
    }
  } else if (opt.workload == "pi") {
    workloads::PiEstimator pi{.num_maps = opt.workers, .samples_per_map = 500000};
    auto real = pi.run();
    auto t = platform.run_job(pi.sim_job("/out/pi"));
    std::printf("pi: estimate %.5f (%lld samples), cluster time %.1f s\n", real.pi,
                static_cast<long long>(real.total), t.elapsed());
  } else if (opt.workload == "multi") {
    // One long sort monopolizes the cluster under FIFO; a train of short
    // jobs queues behind it. Fair/Capacity interleave them instead.
    workloads::TeraSort ts{.total_bytes = opt.mb * 4 * sim::kMiB, .num_reduces = 4};
    platform.run_job(ts.sim_teragen("/multi/in"));
    const double t0 = platform.engine().now();
    std::vector<std::pair<std::string, double>> latency;
    auto record = [&latency, t0](const std::string& name) {
      return [&latency, name, t0](const mapreduce::JobTimeline& t) {
        latency.emplace_back(name, t.finished - t0);
      };
    };
    auto long_job = ts.sim_terasort("/multi/in", "/multi/out");
    long_job.queue = "prod";
    platform.submit_job(std::move(long_job), record("long-sort"));
    for (int k = 0; k < 4; ++k) {
      workloads::MrBench bench{.num_maps = 4, .num_reduces = 1};
      auto job = bench.sim_job("/multi/short-" + std::to_string(k));
      job.name = "short-" + std::to_string(k);
      job.queue = "adhoc";
      auto done = record(job.name);
      platform.submit_job(std::move(job), std::move(done));
    }
    platform.engine().run();
    double makespan = 0.0;
    for (const auto& [name, secs] : latency) {
      std::printf("  %-10s finished after %.1f s\n", name.c_str(), secs);
      makespan = std::max(makespan, secs);
    }
    std::printf("multi (%s): %zu jobs, makespan %.1f s\n",
                platform.runner().scheduler_name(), latency.size(), makespan);
  } else if (opt.workload == "trace") {
    workloads::WorkloadTrace trace;
    if (!opt.workload_trace.empty()) {
      std::ifstream in(opt.workload_trace, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "vhadoop_cli: cannot read %s\n", opt.workload_trace.c_str());
        return 1;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const auto err = workloads::parse_trace(buf.str(), trace);
      if (!err.ok()) {
        std::fprintf(stderr, "vhadoop_cli: %s: %s\n", opt.workload_trace.c_str(),
                     err.to_string().c_str());
        return 1;
      }
    } else {
      trace = workloads::generate_trace(trace_gen);
      if (!trace_gen_out.empty()) {
        if (!write_text_file(trace_gen_out, trace.serialize())) return 1;
        std::printf("trace: wrote %zu records to %s\n", trace.records.size(),
                    trace_gen_out.c_str());
        return 0;
      }
    }
    workloads::TraceReplayer replayer(
        platform.engine(), platform.metrics(), std::move(trace),
        [&platform](mapreduce::SimJobSpec job,
                    std::function<void(const mapreduce::JobTimeline&)> done) {
          platform.submit_job(std::move(job), std::move(done));
        });
    const double makespan = replayer.run_to_completion();
    std::printf("trace (%s): %d accepted, %d rejected, %d completed, %d failed, "
                "makespan %.1f s\n",
                platform.runner().scheduler_name(), replayer.accepted(),
                replayer.rejected(), replayer.completed(), replayer.failed(), makespan);
    std::printf("  SLO: %d/%d missed (%.1f%%), p50 %.1f s, p95 %.1f s, p99 %.1f s\n",
                replayer.slo_missed(), replayer.slo_tracked(),
                100.0 * replayer.slo_miss_rate(), replayer.latency_percentile(0.50),
                replayer.latency_percentile(0.95), replayer.latency_percentile(0.99));
    for (const auto& ts : replayer.tenant_stats()) {
      std::printf("  %-8s acc %4d rej %3d done %4d miss %3d p95 %8.1f s\n",
                  ts.tenant.c_str(), ts.accepted, ts.rejected, ts.completed,
                  ts.slo_missed, ts.latency_percentile(0.95));
    }
  } else {
    return usage();
  }

  if (!opt.metrics_out.empty()) {
    if (!write_text_file(opt.metrics_out, platform.metrics().to_json())) return 1;
    std::printf("metrics: %s (%zu metrics)\n", opt.metrics_out.c_str(),
                platform.metrics().size());
  }
  if (!opt.trace_out.empty()) {
    if (!write_text_file(opt.trace_out, platform.tracer().to_chrome_json())) return 1;
    std::printf("trace: %s (%zu events) — load in chrome://tracing or ui.perfetto.dev\n",
                opt.trace_out.c_str(), platform.tracer().events().size());
  }
  if (!opt.spans_out.empty()) {
    if (!write_text_file(opt.spans_out, platform.tracer().to_span_graph_json())) return 1;
    std::printf("spans: %s (%zu spans, %zu cause edges) — query with trace_query\n",
                opt.spans_out.c_str(), platform.tracer().spans().size(),
                platform.tracer().cause_edges().size());
  }
  if (!opt.timeseries_out.empty()) {
    if (!write_text_file(opt.timeseries_out, platform.engine().timeseries().to_json())) {
      return 1;
    }
    std::printf("timeseries: %s (%zu series)\n", opt.timeseries_out.c_str(),
                platform.engine().timeseries().series_count());
  }
  return 0;
}
