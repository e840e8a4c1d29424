#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hdfs/hdfs.hpp"
#include "mapreduce/bridge.hpp"
#include "mapreduce/sim_runner.hpp"
#include "ml/clustering.hpp"
#include "monitor/nmon.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "tuner/tuner.hpp"
#include "virt/cloud.hpp"
#include "virt/migration_bench.hpp"

namespace vhadoop::core {

/// The physical substrate the paper deploys on: two Dell T710 servers, a
/// GbE switch and one NFS image server.
struct TestbedConfig {
  int num_hosts = 2;
  net::NetConfig net;
  virt::VirtConfig virt;
};

/// Where the cluster's VMs land (paper Sec. III-B). Spread generalizes the
/// paper's two-host split to the scale-out testbeds of bench/scale_cluster:
/// VMs land round-robin across every configured host.
enum class Placement {
  Normal,       ///< all VMs on physical machine A
  CrossDomain,  ///< VMs split evenly between machines A and B
  Spread,       ///< VMs round-robin over all hosts
};

/// A hadoop virtual cluster request: 1 namenode + N worker VMs plus the
/// Hadoop Module parameters.
struct ClusterSpec {
  int num_workers = 15;
  virt::VmSpec vm{.vcpus = 1, .memory_mb = 1024};
  Placement placement = Placement::Normal;
  hdfs::HdfsConfig hdfs;
  mapreduce::HadoopConfig hadoop;
  std::uint64_t seed = 7;
};

/// The vHadoop platform facade — the paper's five modules wired together:
/// Virtualization Module (Cloud), Hadoop Module (HdfsCluster +
/// SimulatedJobRunner), Machine Learning Algorithm Library (vhadoop::ml,
/// bridged through run_clustering), nmon Monitor and MapReduce Tuner.
/// Implements the nine-step execution flow of Sec. II-A.
class Platform {
 public:
  explicit Platform(TestbedConfig config = {});
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Steps 1-3: create and boot the hadoop virtual cluster, configure the
  /// Hadoop parameters. Blocks (in simulated time) until every VM is up.
  void boot_cluster(const ClusterSpec& spec);

  /// Step 4: upload input data of `bytes` to HDFS from the namenode.
  void upload(const std::string& path, double bytes);

  /// Elastic scale-out (the paper's stated future work: "scalable
  /// on-demand computation service"): boot `n` more worker VMs on `host`
  /// and register them as datanodes + tasktrackers. Blocks until they are
  /// up; a running job starts using them at their next heartbeat.
  std::vector<virt::VmId> add_workers(int n, virt::HostId host);

  /// Steps 5-8: run one simulated job to completion.
  mapreduce::JobTimeline run_job(mapreduce::SimJobSpec spec);

  /// Enqueue a job without driving the engine: lets callers stage several
  /// concurrent jobs (multi-tenant workloads under the Fair/Capacity
  /// schedulers) and then run the engine themselves.
  void submit_job(mapreduce::SimJobSpec spec,
                  std::function<void(const mapreduce::JobTimeline&)> on_done);

  /// Run a *measured* logical job (LocalJobRunner output) on the virtual
  /// cluster: the bridge maps real task profiles onto simulated tasks.
  /// `input_path` must exist in HDFS; map block indices are folded onto
  /// the file's real block count.
  mapreduce::JobTimeline run_measured(const std::string& name,
                                      const mapreduce::JobResult& measured,
                                      const std::string& input_path,
                                      const std::string& output_path);

  /// Run every per-iteration job of a clustering run back-to-back (the
  /// Mahout driver loop on the virtual cluster). Uploads the dataset to
  /// `input_path` if absent. Returns total elapsed simulated seconds.
  double run_clustering(const ml::ClusteringRun& run, double dataset_bytes,
                        const std::string& input_path);

  /// Step 9 support: attach an nmon monitor over all cluster VMs.
  monitor::NmonMonitor& attach_monitor(double interval_seconds = 1.0);
  /// Analyse the traces and get tuner recommendations. Each recommendation
  /// is also recorded as an instant event on the trace's platform lane.
  std::vector<tuner::Recommendation> tune(const tuner::TunerPolicy& policy = {});

  /// Actuate one tuner recommendation against the running platform:
  /// MigrateVm live-migrates the flagged VM (blocking); RebalanceNetwork
  /// throttles the busiest VM's VCPU (credit-scheduler cap) to relieve its
  /// I/O pressure; parameter-level kinds are no-ops here (fold them into a
  /// HadoopConfig with tuner::MapReduceTuner::apply for the next cluster).
  /// Returns true if something was actuated.
  bool apply_recommendation(const tuner::Recommendation& rec);

  /// Live-migrate the whole cluster to `dst` (Virt-LM extension), using
  /// per-VM dirty behaviour. Blocks until every VM resumed.
  virt::ClusterMigrationResult migrate_cluster(virt::HostId dst,
                                               std::function<virt::DirtyModel(virt::VmId)> dirty,
                                               int concurrency = 2);

  // --- observability --------------------------------------------------------
  /// Trace lane for platform-level events (tuner decisions); VM pids are
  /// the VmIds themselves, so this sits far outside their range.
  static constexpr int kPlatformPid = 9999;

  /// Platform-wide metrics registry (owned by the simulation engine; every
  /// module publishes its counters here).
  obs::Registry& metrics() { return engine_.metrics(); }
  const obs::Registry& metrics() const { return engine_.metrics(); }
  /// Timeline tracer on the simulated clock.
  obs::Tracer& tracer() { return engine_.tracer(); }
  const obs::Tracer& tracer() const { return engine_.tracer(); }
  /// Turn on timeline recording (lane names are registered at boot whether
  /// or not tracing is on, so this can be called any time).
  void enable_tracing() { engine_.tracer().set_enabled(true); }

  /// Register the standard platform probes (pending events plus the core
  /// module counters) and sample them every `period_seconds` of simulated
  /// time into the engine's ring-buffered time series. Idempotent; the
  /// sampler is a daemon chain, so it never keeps the engine alive.
  void enable_timeseries(double period_seconds = 1.0);

  // --- component access ----------------------------------------------------
  sim::Engine& engine() { return engine_; }
  virt::Cloud& cloud() { return *cloud_; }
  net::Fabric& fabric() { return *fabric_; }
  hdfs::HdfsCluster& hdfs() { return *hdfs_; }
  mapreduce::SimulatedJobRunner& runner() { return *runner_; }
  const std::vector<virt::HostId>& hosts() const { return hosts_; }
  virt::VmId namenode() const { return namenode_; }
  const std::vector<virt::VmId>& workers() const { return workers_; }
  std::vector<virt::VmId> all_vms() const;

 private:
  /// Register process/thread names for a VM's trace lanes.
  void name_vm_lanes(virt::VmId vm);

  TestbedConfig config_;
  sim::Engine engine_;
  std::unique_ptr<sim::FluidModel> model_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<virt::Cloud> cloud_;
  std::vector<virt::HostId> hosts_;
  ClusterSpec spec_;
  virt::VmId namenode_{};
  std::vector<virt::VmId> workers_;
  std::unique_ptr<hdfs::HdfsCluster> hdfs_;
  std::unique_ptr<mapreduce::SimulatedJobRunner> runner_;
  std::unique_ptr<monitor::NmonMonitor> monitor_;
  int job_counter_ = 0;
};

}  // namespace vhadoop::core
