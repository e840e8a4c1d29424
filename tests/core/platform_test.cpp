#include "core/platform.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "ml/kmeans.hpp"
#include "workloads/wordcount.hpp"
#include "workloads/text_corpus.hpp"
#include "mapreduce/local_runner.hpp"

namespace vhadoop::core {
namespace {

TEST(Platform, BootsNormalCluster) {
  Platform p;
  p.boot_cluster({.num_workers = 4});
  EXPECT_EQ(p.workers().size(), 4u);
  EXPECT_EQ(p.cloud().state(p.namenode()), virt::VmState::Running);
  for (virt::VmId vm : p.workers()) {
    EXPECT_EQ(p.cloud().state(vm), virt::VmState::Running);
    EXPECT_EQ(p.cloud().host_of(vm), p.hosts()[0]);
  }
  EXPECT_GT(p.engine().now(), 0.0);  // booting took simulated time
}

TEST(Platform, CrossDomainSplitsVmsEvenly) {
  Platform p;
  p.boot_cluster({.num_workers = 15, .placement = Placement::CrossDomain});
  int on_a = 0, on_b = 0;
  for (virt::VmId vm : p.all_vms()) {
    (p.cloud().host_of(vm) == p.hosts()[0] ? on_a : on_b)++;
  }
  EXPECT_EQ(on_a, 8);
  EXPECT_EQ(on_b, 8);
}

TEST(Platform, DoubleBootRejected) {
  Platform p;
  p.boot_cluster({.num_workers = 2});
  EXPECT_THROW(p.boot_cluster({.num_workers = 2}), std::runtime_error);
}

TEST(Platform, OperationsBeforeBootRejected) {
  Platform p;
  EXPECT_THROW(p.upload("/x", 1024), std::runtime_error);
  EXPECT_THROW(p.run_job({}), std::runtime_error);
  EXPECT_THROW(p.tune(), std::runtime_error);
}

TEST(Platform, UploadLandsInHdfs) {
  Platform p;
  p.boot_cluster({.num_workers = 3});
  p.upload("/data/in", 100 * sim::kMiB);
  EXPECT_TRUE(p.hdfs().exists("/data/in"));
  EXPECT_DOUBLE_EQ(p.hdfs().file_size("/data/in"), 100 * sim::kMiB);
}

TEST(Platform, RunsWordcountEndToEnd) {
  // The full paper flow: generate corpus, upload, really execute the job,
  // replay it on the virtual cluster, check the timeline.
  Platform p;
  p.boot_cluster({.num_workers = 4});

  workloads::TextCorpus corpus(2000);
  auto lines = corpus.generate(2 * sim::kMiB);
  mapreduce::LocalJobRunner local(4);
  auto measured = local.run(workloads::wordcount_job(2), lines, 4);

  p.upload("/in/words", mapreduce::serialized_bytes(lines));
  auto timeline = p.run_measured("wordcount", measured, "/in/words", "/out/words");
  EXPECT_EQ(timeline.maps.size(), 4u);
  EXPECT_EQ(timeline.reduces.size(), 2u);
  EXPECT_GT(timeline.elapsed(), 0.0);
  EXPECT_TRUE(p.hdfs().exists("/out/words/part-0"));
}

TEST(Platform, RunMeasuredRequiresInput) {
  Platform p;
  p.boot_cluster({.num_workers = 2});
  mapreduce::JobResult fake;
  fake.map_profiles.push_back({});
  EXPECT_THROW(p.run_measured("x", fake, "/missing", "/out"), std::runtime_error);
}

TEST(Platform, RunClusteringExecutesEveryIteration) {
  Platform p;
  p.boot_cluster({.num_workers = 4});

  auto data = ml::display_clustering_samples(200, 3);
  auto run = ml::kmeans_cluster(data, {.k = 3, .base = {.num_splits = 4, .max_iterations = 5}});
  const double elapsed = p.run_clustering(run, 64 * sim::kMiB, "/in/points");
  EXPECT_GT(elapsed, 0.0);
  EXPECT_TRUE(p.hdfs().exists("/in/points"));
  // Each iteration committed its own output.
  EXPECT_TRUE(p.hdfs().exists("/out/kmeans-0-it0/part-0"));
}

TEST(Platform, MonitorAndTunerIntegration) {
  Platform p;
  p.boot_cluster({.num_workers = 4});
  auto& mon = p.attach_monitor(1.0);

  // Saturate NFS: every worker writes hard.
  for (virt::VmId vm : p.workers()) p.cloud().disk_write(vm, 400 * sim::kMiB, nullptr);
  p.engine().run_until(p.engine().now() + 8.0);
  mon.stop();
  p.engine().run();

  ASSERT_FALSE(mon.samples().empty());
  auto recs = p.tune();
  bool found = false;
  for (const auto& r : recs) {
    if (r.kind == tuner::Recommendation::Kind::IncreaseSortBuffer) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Platform, RejectedMonitorIntervalAttachesNoMonitor) {
  Platform p;
  p.boot_cluster({.num_workers = 2});
  EXPECT_THROW(p.attach_monitor(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(p.attach_monitor(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  try {
    p.tune();
    ADD_FAILURE() << "tune() without a monitor must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Platform: attach a monitor first");
  }
}

TEST(Platform, TunerRecommendationActuation) {
  Platform p;
  // 21 single-VCPU guests saturate the 16-thread host A; host B is idle.
  p.boot_cluster({.num_workers = 20});
  auto& mon = p.attach_monitor(1.0);
  for (virt::VmId vm : p.workers()) p.cloud().run_compute(vm, 200.0, nullptr);
  p.engine().run_until(p.engine().now() + 10.0);
  mon.stop();

  auto recs = p.tune();
  bool migrated = false;
  for (const auto& rec : recs) {
    if (rec.kind == tuner::Recommendation::Kind::MigrateVm) {
      migrated = p.apply_recommendation(rec);
      virt::VmId vm = p.all_vms()[rec.vm_index];
      EXPECT_EQ(p.cloud().host_of(vm), p.hosts()[rec.target_host]);
    }
  }
  EXPECT_TRUE(migrated);

  // Actuating a parameter-level recommendation is a no-op here.
  EXPECT_FALSE(p.apply_recommendation({tuner::Recommendation::Kind::IncreaseSortBuffer, ""}));
}

TEST(Platform, ClusterMigrationMovesEveryVm) {
  Platform p;
  p.boot_cluster({.num_workers = 7});
  auto result =
      p.migrate_cluster(p.hosts()[1], [](virt::VmId) { return virt::DirtyModel::idle(); });
  EXPECT_EQ(result.per_vm.size(), 8u);
  for (virt::VmId vm : p.all_vms()) EXPECT_EQ(p.cloud().host_of(vm), p.hosts()[1]);
  EXPECT_GT(result.overall_migration_time, 0.0);
}

TEST(Platform, TimeseriesSamplesStandardProbesDuringAJob) {
  Platform p;
  p.boot_cluster({.num_workers = 4});
  p.enable_timeseries(1.0);

  mapreduce::SimJobSpec job;
  job.name = "ts";
  job.output_path = "/out/ts";
  for (int m = 0; m < 4; ++m) {
    job.maps.push_back({.input_bytes = 16 * sim::kMiB, .cpu_seconds = 2.0,
                        .output_bytes = 8 * sim::kMiB});
  }
  job.reduces.push_back({.cpu_seconds = 1.0, .output_bytes = 4 * sim::kMiB});
  auto timeline = p.run_job(job);
  EXPECT_GT(timeline.elapsed(), 2.0);

  const obs::TimeSeries& ts = p.engine().timeseries();
  EXPECT_TRUE(ts.has("sim.pending_events"));
  const auto attempts = ts.points("mr.map_attempts");
  ASSERT_GE(attempts.size(), 2u);
  // The counter probe is cumulative: samples never decrease, and by the
  // end of the run every map attempt has been counted.
  for (std::size_t i = 1; i < attempts.size(); ++i) {
    EXPECT_GE(attempts[i].v, attempts[i - 1].v);
  }
  EXPECT_GE(attempts.back().v, 4.0);
}

TEST(Platform, NineStepFlowSmoke) {
  // The paper's Sec. II-A execution flow in one piece: request cluster,
  // boot, configure, upload, run, monitor, tune.
  Platform p;
  p.boot_cluster({.num_workers = 6, .placement = Placement::CrossDomain});
  auto& mon = p.attach_monitor(0.5);

  mapreduce::SimJobSpec job;
  job.name = "flow";
  job.output_path = "/out/flow";
  for (int m = 0; m < 6; ++m) {
    job.maps.push_back({.input_bytes = 16 * sim::kMiB, .cpu_seconds = 1.0,
                        .output_bytes = 8 * sim::kMiB});
  }
  job.reduces.push_back({.cpu_seconds = 0.5, .output_bytes = 4 * sim::kMiB});
  auto timeline = p.run_job(job);
  mon.stop();
  p.engine().run();

  EXPECT_GT(timeline.elapsed(), 0.0);
  EXPECT_FALSE(mon.samples().empty());
  EXPECT_NO_THROW(p.tune());
}

}  // namespace
}  // namespace vhadoop::core
