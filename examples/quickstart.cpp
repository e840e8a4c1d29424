// Quickstart: the vHadoop nine-step flow end to end.
//
// Boots a 16-node hadoop virtual cluster (1 namenode + 15 workers) on the
// simulated two-server testbed, really executes a Wordcount over a
// synthetic corpus with the logical MapReduce engine, replays the measured
// job on the virtual cluster, and prints the timeline plus the nmon
// monitor's verdict.
//
//   ./examples/quickstart [corpus_mb]
//
// corpus_mb must be a positive, finite number; anything else (or a second
// argument) prints the usage line and exits 2.

#include <cstdio>

#include "core/platform.hpp"
#include "mapreduce/local_runner.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"
#include "parse_positive.hpp"

using namespace vhadoop;

int main(int argc, char** argv) {
  double corpus_mb = 16.0;
  if (argc > 2 || (argc == 2 && !examples::parse_positive(argv[1], corpus_mb))) {
    std::fprintf(stderr, "usage: quickstart [corpus_mb]  (corpus_mb: a positive number)\n");
    return 2;
  }

  std::printf("== vHadoop quickstart ==\n");
  std::printf("corpus: %.0f MB of Zipf text\n\n", corpus_mb);

  // Steps 1-3: request, boot and configure the hadoop virtual cluster.
  core::Platform platform;
  core::ClusterSpec spec;
  spec.num_workers = 15;
  spec.placement = core::Placement::Normal;
  platform.boot_cluster(spec);
  std::printf("cluster up: %zu workers + namenode, boot took %.1f s (simulated)\n",
              platform.workers().size(), platform.engine().now());

  // Really execute the job: generate the corpus and run Wordcount through
  // the multi-threaded logical engine.
  workloads::TextCorpus corpus(20000);
  auto lines = corpus.generate(corpus_mb * sim::kMiB);
  const double input_bytes = mapreduce::serialized_bytes(lines);
  const int splits = std::max(1, static_cast<int>(input_bytes / spec.hdfs.block_size) + 1);

  mapreduce::LocalJobRunner local;
  auto measured = local.run(workloads::wordcount_job(4), lines, splits);
  std::printf("logical run: %zu map tasks, %zu reducers, %.2f MB shuffle, %zu distinct words\n",
              measured.map_profiles.size(), measured.reduce_profiles.size(),
              measured.total_shuffle_bytes / sim::kMiB, measured.output.size());

  // Step 4: upload the input; step 9: watch with nmon.
  platform.upload("/input/corpus", input_bytes);
  auto& mon = platform.attach_monitor(1.0);

  // Steps 5-8: run the measured job on the virtual cluster.
  auto timeline = platform.run_measured("wordcount", measured, "/input/corpus", "/out/wc");
  mon.stop();

  std::printf("\nvirtual-cluster run: %.1f s elapsed, %d/%zu data-local maps\n",
              timeline.elapsed(), timeline.data_local_maps(), timeline.maps.size());

  const auto report = monitor::TraceAnalyser::analyse(mon);
  std::printf("nmon: avg VM cpu %.0f%%, avg NFS disk %.0f%%, bottleneck: %s\n",
              report.avg_vm_cpu * 100, report.avg_nfs_disk * 100, report.bottleneck.c_str());

  for (const auto& rec : platform.tune()) {
    std::printf("tuner: %s\n", rec.message.c_str());
  }
  std::printf("\ndone.\n");
  return 0;
}
