#include "monitor/nmon.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "testutil/sim_cluster.hpp"

namespace vhadoop::monitor {
namespace {

using testutil::SimCluster;

TEST(Nmon, SamplesAtConfiguredInterval) {
  auto c = SimCluster::make(4, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 2.0);
  mon.start();
  const double t0 = c->engine.now();
  c->engine.run_until(t0 + 11.0);
  mon.stop();
  EXPECT_EQ(mon.samples().size(), 5u);
  for (std::size_t i = 1; i < mon.samples().size(); ++i) {
    EXPECT_NEAR(mon.samples()[i].time - mon.samples()[i - 1].time, 2.0, 1e-9);
  }
}

TEST(Nmon, StopCancelsPendingTimerSoEngineDrains) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  EXPECT_TRUE(mon.running());
  mon.stop();
  EXPECT_FALSE(mon.running());
  c->engine.run();  // must terminate
  EXPECT_TRUE(mon.samples().empty());
}

TEST(Nmon, CapturesCpuActivity) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  bool done = false;
  c->cloud->run_compute(c->workers[0], 5.0, [&] { done = true; });
  c->engine.run_until(c->engine.now() + 4.0);
  mon.stop();
  c->engine.run();
  ASSERT_TRUE(done || true);
  ASSERT_GE(mon.samples().size(), 3u);
  // Worker 0 fully busy in the sampled window; worker 1 idle.
  EXPECT_NEAR(mon.samples()[1].vm_cpu[0], 1.0, 0.05);
  EXPECT_NEAR(mon.samples()[1].vm_cpu[1], 0.0, 0.05);
}

TEST(Nmon, CapturesDiskBytes) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  c->cloud->disk_write(c->workers[0], 30 * sim::kMiB, nullptr);
  c->engine.run_until(c->engine.now() + 3.0);
  mon.stop();
  c->engine.run();
  double disk_total = 0.0;
  for (const auto& s : mon.samples()) disk_total += s.vm_disk_bytes[0];
  EXPECT_NEAR(disk_total, 30 * sim::kMiB, sim::kMiB);
}

TEST(Nmon, CsvHasHeaderAndRows) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  c->engine.run_until(c->engine.now() + 3.5);
  mon.stop();
  const std::string csv = mon.to_csv();
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("worker0.cpu"), std::string::npos);
  EXPECT_NE(header.find("nfs.disk"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

TEST(Analyser, FindsNfsDiskBottleneck) {
  auto c = SimCluster::make(4, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  // Hammer the NFS path from every worker.
  for (virt::VmId vm : c->workers) c->cloud->disk_write(vm, 200 * sim::kMiB, nullptr);
  c->engine.run_until(c->engine.now() + 5.0);
  mon.stop();
  c->engine.run();
  auto report = TraceAnalyser::analyse(mon);
  EXPECT_EQ(report.bottleneck, "nfs-disk");
  EXPECT_GT(report.avg_nfs_disk, 0.9);
}

TEST(Analyser, FindsCpuBottleneckAndBusiestVm) {
  auto c = SimCluster::make(3, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  c->cloud->run_compute(c->workers[2], 50.0, nullptr);
  c->engine.run_until(c->engine.now() + 6.0);
  mon.stop();
  c->engine.run();
  auto report = TraceAnalyser::analyse(mon);
  EXPECT_EQ(report.bottleneck, "cpu");
  EXPECT_EQ(report.busiest_vm, 2u);
}

TEST(Nmon, RejectsNonPositiveInterval) {
  auto c = SimCluster::make(2, false);
  EXPECT_THROW(NmonMonitor(*c->cloud, *c->fabric, c->workers, 0.0),
               std::invalid_argument);
  EXPECT_THROW(NmonMonitor(*c->cloud, *c->fabric, c->workers, -1.0),
               std::invalid_argument);
  EXPECT_THROW(NmonMonitor(*c->cloud, *c->fabric, c->workers,
                           std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(NmonMonitor(*c->cloud, *c->fabric, c->workers,
                           std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Nmon, SamplesVmMemoryAndReportsAvgPeak) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  // Cached data counts toward the VM's sampled memory footprint.
  c->cloud->cache_insert(c->workers[0], "blk-a", 50 * sim::kMiB);
  c->engine.run_until(c->engine.now() + 4.0);
  mon.stop();
  c->engine.run();
  ASSERT_GE(mon.samples().size(), 2u);
  const auto& s = mon.samples().back();
  ASSERT_EQ(s.vm_mem.size(), c->workers.size());
  for (double mb : s.vm_mem) EXPECT_GT(mb, 0.0);  // base footprint
  // Worker 0 cached the read; worker 1 did not.
  EXPECT_GT(s.vm_mem[0], s.vm_mem[1]);

  auto report = TraceAnalyser::analyse(mon);
  EXPECT_GT(report.avg_vm_mem, 0.0);
  EXPECT_GE(report.peak_vm_mem, report.avg_vm_mem);

  // The CSV grows a memory column per VM.
  EXPECT_NE(mon.to_csv().find("worker0.mem_mb"), std::string::npos);
}

TEST(Analyser, ReportsPercentiles) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  mon.start();
  c->cloud->run_compute(c->workers[0], 3.0, nullptr);
  c->engine.run_until(c->engine.now() + 8.0);
  mon.stop();
  c->engine.run();
  auto report = TraceAnalyser::analyse(mon);
  // Percentiles are ordered and bounded by utilization limits.
  EXPECT_LE(report.p50_vm_cpu, report.p95_vm_cpu);
  EXPECT_LE(report.p50_nfs_disk, report.p95_nfs_disk);
  EXPECT_GE(report.p95_vm_cpu, 0.0);
  EXPECT_LE(report.p95_vm_cpu, 1.05);
  // Worker 0 was busy for ~3 of ~8 sampled seconds: p95 sees the busy
  // tail, p50 the idle majority.
  EXPECT_GT(report.p95_vm_cpu, report.p50_vm_cpu);
}

TEST(Analyser, EmptyTraceIsSafe) {
  auto c = SimCluster::make(2, false);
  NmonMonitor mon(*c->cloud, *c->fabric, c->workers, 1.0);
  auto report = TraceAnalyser::analyse(mon);
  EXPECT_EQ(report.bottleneck, "none");
}

}  // namespace
}  // namespace vhadoop::monitor
