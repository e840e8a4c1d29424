// Cross-domain placement study (the paper's Sec. III-B scenario as an
// application): the same Wordcount workload on a 16-node hadoop virtual
// cluster placed normally (one physical machine) vs cross-domain (split
// over two), with the nmon monitor explaining the difference.
//
// The corpus is staged as ~16 MB files (TOEFL reading materials are many
// small texts, one map per file), the job really executes once through the
// logical MapReduce engine, and the measured task profiles replay against
// both placements — three runs averaged, as the paper prescribes.
//
//   ./examples/cross_domain_study [corpus_mb]
//
// corpus_mb must be a positive, finite number; anything else (or a second
// argument) prints the usage line and exits 2.

#include <cstdio>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "mapreduce/local_runner.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"
#include "parse_positive.hpp"

using namespace vhadoop;

namespace {

struct Scenario {
  std::vector<std::string> paths;
  std::vector<double> file_bytes;
  mapreduce::JobResult measured;
};

Scenario prepare(double total_mb) {
  Scenario s;
  workloads::TextCorpus corpus(20000);
  auto lines = corpus.generate(total_mb * sim::kMiB);
  const int files = std::max(1, static_cast<int>(total_mb / 16.0 + 0.5));
  mapreduce::LocalJobRunner local;
  s.measured = local.run(workloads::wordcount_job(4), lines, files);
  for (int f = 0; f < files; ++f) {
    s.paths.push_back("/in/toefl-" + std::to_string(f));
    s.file_bytes.push_back(s.measured.map_profiles[static_cast<std::size_t>(f)].input_bytes);
  }
  return s;
}

struct CaseResult {
  double elapsed = 0.0;
  std::string bottleneck;
  double peak_tx = 0.0;
};

CaseResult run_case(core::Placement placement, const Scenario& s) {
  core::Platform platform;
  core::ClusterSpec spec;
  spec.num_workers = 15;
  spec.placement = placement;
  platform.boot_cluster(spec);
  for (std::size_t f = 0; f < s.paths.size(); ++f) platform.upload(s.paths[f], s.file_bytes[f]);
  auto& mon = platform.attach_monitor(1.0);

  double total = 0.0;
  for (int r = 0; r < 3; ++r) {
    auto job = mapreduce::to_sim_job_files("wordcount", s.measured, s.paths,
                                           "/out/wc-run" + std::to_string(r));
    total += platform.run_job(std::move(job)).elapsed();
  }
  mon.stop();

  CaseResult res;
  res.elapsed = total / 3.0;
  const auto report = monitor::TraceAnalyser::analyse(mon);
  res.bottleneck = report.bottleneck;
  for (double tx : report.avg_host_tx) res.peak_tx = std::max(res.peak_tx, tx);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  double corpus_mb = 192.0;
  if (argc > 2 || (argc == 2 && !examples::parse_positive(argv[1], corpus_mb))) {
    std::fprintf(stderr, "usage: cross_domain_study [corpus_mb]  (corpus_mb: a positive number)\n");
    return 2;
  }

  std::printf("== cross-domain placement study: Wordcount %.0f MB, 16-node cluster ==\n\n",
              corpus_mb);
  const auto scenario = prepare(corpus_mb);
  std::printf("staged %zu input files, really executed once (%.0f MB shuffle, no combiner)\n\n",
              scenario.paths.size(), scenario.measured.total_shuffle_bytes / sim::kMiB);

  const auto normal = run_case(core::Placement::Normal, scenario);
  const auto cross = run_case(core::Placement::CrossDomain, scenario);

  std::printf("%-14s %12s %14s %10s\n", "placement", "runtime(s)", "bottleneck", "avg tx");
  std::printf("%-14s %12.1f %14s %9.0f%%\n", "normal", normal.elapsed,
              normal.bottleneck.c_str(), normal.peak_tx * 100);
  std::printf("%-14s %12.1f %14s %9.0f%%\n", "cross-domain", cross.elapsed,
              cross.bottleneck.c_str(), cross.peak_tx * 100);
  std::printf("\ncross-domain penalty: %.1f%%  (sweep the full Fig. 2 curve with "
              "bench/fig2_wordcount)\n",
              (cross.elapsed / normal.elapsed - 1.0) * 100.0);
  return 0;
}
