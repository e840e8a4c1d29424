#include <gtest/gtest.h>

#include "testutil/sim_cluster.hpp"

namespace vhadoop::mapreduce {
namespace {

using testutil::SimCluster;

SimJobSpec job_of(int maps, int reduces) {
  SimJobSpec spec;
  spec.name = "ft";
  spec.output_path = "/out/ft";
  for (int m = 0; m < maps; ++m) {
    spec.maps.push_back({.input_bytes = 16 * sim::kMiB, .cpu_seconds = 4.0,
                         .output_bytes = 8 * sim::kMiB});
  }
  for (int r = 0; r < reduces; ++r) {
    spec.reduces.push_back({.cpu_seconds = 1.0, .output_bytes = 2 * sim::kMiB});
  }
  return spec;
}

/// A shuffle-heavy job_of: lighter maps that each spill `out_mib`.
SimJobSpec shuffle_job(int maps, double out_mib, int reduces) {
  SimJobSpec spec = job_of(maps, reduces);
  for (auto& mt : spec.maps) {
    mt.cpu_seconds = 0.5;
    mt.output_bytes = out_mib * sim::kMiB;
  }
  return spec;
}

TEST(FaultTolerance, JobSurvivesWorkerCrashDuringMapPhase) {
  auto c = SimCluster::make(6, false);
  JobTimeline timeline;
  bool done = false;
  c->runner->submit(job_of(12, 2), [&](const JobTimeline& t) {
    timeline = t;
    done = true;
  });
  // Kill a worker while maps are running.
  c->engine.run_until(c->engine.now() + 8.0);
  const double crash_time = c->engine.now();
  c->cloud->crash_vm(c->workers[0]);
  c->engine.run();
  ASSERT_TRUE(done);
  EXPECT_GT(c->runner->reexecuted_maps(), 0);
  // Every task record is complete, and nothing finished on the dead VM
  // after the crash instant.
  for (const auto& t : timeline.maps) {
    EXPECT_GT(t.finished, 0.0);
    EXPECT_TRUE(t.finished <= crash_time || t.vm != c->workers[0]);
  }
  for (const auto& t : timeline.reduces) EXPECT_GT(t.finished, 0.0);
}

TEST(FaultTolerance, JobSurvivesReducerCrash) {
  auto c = SimCluster::make(5, false);
  JobTimeline timeline;
  bool done = false;
  c->runner->submit(job_of(6, 3), [&](const JobTimeline& t) {
    timeline = t;
    done = true;
  });
  // Let reducers get assigned, then kill one of their hosts.
  c->engine.run_until(c->engine.now() + 10.0);
  virt::VmId victim = 0;
  for (virt::VmId vm : c->workers) {
    if (c->runner->running_tasks(vm) > 0) {
      victim = vm;
      break;
    }
  }
  c->cloud->crash_vm(victim);
  c->engine.run();
  ASSERT_TRUE(done);
  for (const auto& t : timeline.reduces) {
    EXPECT_GT(t.finished, 0.0);
    EXPECT_NE(t.vm, victim);
  }
}

TEST(FaultTolerance, CompletedMapOutputsLostWithNodeAreRedone) {
  auto c = SimCluster::make(4, false);
  // Slow reduces: maps all finish, then a mapper VM dies before the
  // reducer fetched everything? With immediate fetches this is tight;
  // instead verify the accounting path: crash after map completion but the
  // job still completes with consistent output.
  JobTimeline timeline;
  bool done = false;
  c->runner->submit(job_of(8, 1), [&](const JobTimeline& t) {
    timeline = t;
    done = true;
  });
  c->engine.run_until(c->engine.now() + 12.0);
  c->cloud->crash_vm(c->workers[1]);
  c->engine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(c->hdfs->exists("/out/ft/part-0") || c->hdfs->exists("/out/ft/part-0-a1"));
}

TEST(FaultTolerance, MapOnlyJobSurvivesCrash) {
  auto c = SimCluster::make(4, false);
  auto spec = job_of(8, 0);
  spec.map_output_to_hdfs = true;
  spec.output_path = "/out/maponly-ft";
  bool done = false;
  c->runner->submit(spec, [&](const JobTimeline&) { done = true; });
  c->engine.run_until(c->engine.now() + 6.0);
  c->cloud->crash_vm(c->workers[2]);
  c->engine.run();
  EXPECT_TRUE(done);
}

TEST(FaultTolerance, SpeculationIdleOnHealthyUniformJob) {
  HadoopConfig hc;
  hc.speculative_execution = true;
  auto c = SimCluster::make(6, false, hc);
  bool done = false;
  c->runner->submit(job_of(12, 1), [&](const JobTimeline&) { done = true; });
  c->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c->runner->reexecuted_maps(), 0);  // no stragglers, no waste
}

TEST(FaultTolerance, SpeculationRescuesSilentlyHungNode) {
  // hang_vm wedges a guest without notifying anyone — only a speculative
  // duplicate of its stuck task can save the job within the timeout.
  auto run_case = [](bool speculation) {
    HadoopConfig hc;
    hc.speculative_execution = speculation;
    auto c = SimCluster::make(6, false, hc);
    bool done = false;
    c->runner->submit(job_of(12, 1), [&](const JobTimeline&) { done = true; });
    c->engine.run_until(c->engine.now() + 6.0);
    c->cloud->hang_vm(c->workers[1]);
    c->engine.run_until(c->engine.now() + 150.0);  // < task_timeout (240 s)
    return done;
  };
  EXPECT_TRUE(run_case(true));
  EXPECT_FALSE(run_case(false));  // without speculation, only the timeout (240 s) saves it
}

TEST(FaultTolerance, TaskTimeoutEventuallyRescuesWithoutSpeculation) {
  HadoopConfig hc;
  hc.speculative_execution = false;
  auto c = SimCluster::make(6, false, hc);
  bool done = false;
  c->runner->submit(job_of(12, 1), [&](const JobTimeline&) { done = true; });
  c->engine.run_until(c->engine.now() + 6.0);
  c->cloud->hang_vm(c->workers[1]);
  c->engine.run_until(c->engine.now() + 600.0);  // past mapred.task.timeout
  EXPECT_TRUE(done);
}

TEST(FaultTolerance, MultipleCrashesStillComplete) {
  auto c = SimCluster::make(8, false);
  bool done = false;
  c->runner->submit(job_of(16, 2), [&](const JobTimeline&) { done = true; });
  c->engine.run_until(c->engine.now() + 6.0);
  c->cloud->crash_vm(c->workers[0]);
  c->engine.run_until(c->engine.now() + 6.0);
  c->cloud->crash_vm(c->workers[1]);
  c->engine.run();
  EXPECT_TRUE(done);
}

TEST(FaultTolerance, ReduceRestartedByCrashStartsWithFullCopierWindow) {
  // workers[0] runs a reducer with four copies in flight when it crashes.
  // The restarted attempt must get all five copier slots. A retry that kept
  // the dead attempt's copier window would inherit four busy slots, which
  // never free, and the job would take 210.79 s.
  HadoopConfig hc;
  hc.speculative_execution = false;
  auto c = SimCluster::make(6, true, hc);
  const double submitted = c->engine.now();
  JobTimeline timeline;
  bool done = false;
  c->runner->submit(shuffle_job(30, 160.0, 2), [&](const JobTimeline& t) {
    timeline = t;
    done = true;
  });
  c->engine.run_until(submitted + 41.0);
  c->cloud->crash_vm(c->workers[0]);
  c->engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(c->engine.metrics().counter("mr.reduce_attempts")->value(), 3.0);
  for (const auto& t : timeline.reduces) EXPECT_NE(t.vm, c->workers[0]);
  EXPECT_DOUBLE_EQ(timeline.elapsed(), 187.614006373157);
}

TEST(FaultTolerance, ReduceWatchdogLetsSimulatedTimeAdvance) {
  // The lone reducer ends its shuffle and sits in a merge longer than the
  // task timeout, so its watchdog fires at the deadline it was armed for
  // (t = 698.70627522577456, last progress at 458.70627522577462). There
  // it must expire. A watchdog re-armed by the remaining idle time would
  // be due 5.7e-14 s later, less than half an ulp of now, and would fire
  // on the same instant forever: engine.run() would never return. Stepping
  // under an event budget turns that livelock into a failure. Whether the
  // job completes is not asserted: every attempt's merge outlasts the
  // timeout.
  HadoopConfig hc;
  hc.speculative_execution = false;
  auto c = SimCluster::make(6, false, hc);
  const double submitted = c->engine.now();
  c->runner->submit(shuffle_job(24, 512.0, 1), [](const JobTimeline&) {});
  c->engine.run_until(submitted + 10.0);
  c->cloud->crash_vm(c->workers[0]);
  for (int budget = 200000; budget > 0 && c->engine.now() <= submitted + 1000.0; --budget) {
    if (!c->engine.step()) break;
  }
  EXPECT_GT(c->engine.now(), submitted + 1000.0);
}

TEST(FaultTolerance, WholeClusterLossFailsJobCleanly) {
  auto c = SimCluster::make(3, false);
  JobTimeline timeline;
  bool done = false;
  c->runner->submit(job_of(6, 1), [&](const JobTimeline& t) {
    timeline = t;
    done = true;
  });
  c->engine.run_until(c->engine.now() + 5.0);
  for (virt::VmId vm : c->workers) c->cloud->crash_vm(vm);
  c->engine.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(timeline.failed);
  EXPECT_TRUE(c->runner->idle());
}

TEST(FaultTolerance, HdfsReReplicatesAfterDatanodeLoss) {
  auto c = SimCluster::make(6, false);
  bool staged = false;
  c->hdfs->write_file("/data", 256 * sim::kMiB, c->workers[0], [&] { staged = true; });
  c->engine.run();
  ASSERT_TRUE(staged);
  EXPECT_EQ(c->hdfs->under_replicated_blocks(), 0);

  c->cloud->crash_vm(c->workers[0]);  // primary replica holder of everything
  // Re-replication traffic was started by the crash handler; let it finish.
  c->engine.run();
  EXPECT_EQ(c->hdfs->under_replicated_blocks(), 0);
  for (const auto& block : c->hdfs->blocks("/data")) {
    EXPECT_EQ(block.replicas.size(), 3u);
    for (virt::VmId r : block.replicas) {
      EXPECT_TRUE(c->cloud->alive(r));
      EXPECT_NE(r, c->workers[0]);
    }
  }
}

TEST(FaultTolerance, ReadsAvoidDeadReplicas) {
  auto c = SimCluster::make(5, false);
  c->hdfs->write_file("/f", 64 * sim::kMiB, c->workers[0], nullptr);
  c->engine.run();
  const auto replicas = c->hdfs->blocks("/f")[0].replicas;
  c->cloud->crash_vm(replicas[0]);
  c->engine.run();
  bool read_ok = false;
  c->hdfs->read_file("/f", c->namenode, [&] { read_ok = true; });
  c->engine.run();
  EXPECT_TRUE(read_ok);
}

TEST(FaultTolerance, AllReplicasDeadMeansDataLoss) {
  auto c = SimCluster::make(3, false);
  hdfs::HdfsConfig one{.replication = 1};
  auto fs = std::make_unique<hdfs::HdfsCluster>(*c->cloud, one, c->namenode, c->workers,
                                                sim::Rng(3));
  fs->write_file("/fragile", sim::kMiB, c->workers[0], nullptr);
  c->engine.run();
  const virt::VmId holder = fs->blocks("/fragile")[0].replicas[0];
  c->cloud->crash_vm(holder);
  c->engine.run();
  // The replica list is empty: the namenode rejects the read outright.
  EXPECT_THROW(fs->read_file("/fragile", c->namenode, nullptr), std::runtime_error);
}

TEST(FaultTolerance, GracefulDecommissionNeverUnderReplicates) {
  auto c = SimCluster::make(6, false);
  c->hdfs->write_file("/data", 256 * sim::kMiB, c->workers[0], nullptr);
  c->engine.run();
  bool done = false;
  c->hdfs->decommission_datanode(c->workers[0], [&] { done = true; });
  // Replication copies are real traffic; while they stream, nothing is
  // under-replicated (the leaver still serves reads).
  EXPECT_EQ(c->hdfs->under_replicated_blocks(), 0);
  c->engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(c->hdfs->datanodes().size(), 5u);
  EXPECT_EQ(c->hdfs->under_replicated_blocks(), 0);
  for (const auto& block : c->hdfs->blocks("/data")) {
    EXPECT_EQ(block.replicas.size(), 3u);
    for (virt::VmId r : block.replicas) EXPECT_NE(r, c->workers[0]);
  }
  EXPECT_THROW(c->hdfs->decommission_datanode(c->workers[0], nullptr), std::invalid_argument);
}

TEST(FaultTolerance, WritesAvoidDeadDatanodes) {
  auto c = SimCluster::make(5, false);
  c->cloud->crash_vm(c->workers[4]);
  c->engine.run();
  bool done = false;
  c->hdfs->write_file("/post-crash", 64 * sim::kMiB, c->workers[0], [&] { done = true; });
  c->engine.run();
  ASSERT_TRUE(done);
  for (virt::VmId r : c->hdfs->blocks("/post-crash")[0].replicas) {
    EXPECT_NE(r, c->workers[4]);
  }
}

}  // namespace
}  // namespace vhadoop::mapreduce
