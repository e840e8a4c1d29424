#pragma once

#include <string>
#include <vector>

#include "virt/cloud.hpp"

namespace vhadoop::monitor {

/// One sampling instant across the whole platform.
struct Sample {
  sim::SimTime time = 0.0;
  /// Per monitored VM, parallel to NmonMonitor::vms().
  std::vector<double> vm_cpu;        ///< VCPU utilization in [0,1]
  std::vector<double> vm_net_bytes;  ///< bytes moved since previous sample
  std::vector<double> vm_disk_bytes;
  std::vector<double> vm_mem;        ///< resident memory estimate, MB
  /// Per host.
  std::vector<double> host_cpu;
  std::vector<double> host_tx;  ///< NIC tx utilization
  std::vector<double> host_rx;
  double nfs_disk = 0.0;  ///< NFS spindle utilization
};

/// The nmon Monitor module (paper Sec. II-B): samples CPU / memory / disk /
/// network of every master and worker VM in parallel on a fixed period,
/// producing traces that the analyser (and the MapReduce Tuner) consume.
/// The paper runs one nmon per guest; here one monitor reads the same
/// counters from the resource model.
class NmonMonitor {
 public:
  /// Throws std::invalid_argument if `interval_seconds` is not positive
  /// and finite (a zero or negative period would spin the event loop
  /// forever; an infinite one cannot be scheduled).
  NmonMonitor(virt::Cloud& cloud, net::Fabric& fabric, std::vector<virt::VmId> vms,
              double interval_seconds = 1.0);

  /// Begin sampling (first sample after one interval).
  void start();
  /// Stop sampling; the pending timer is cancelled so the simulation can
  /// drain.
  void stop();
  bool running() const { return event_.valid(); }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<virt::VmId>& vms() const { return vms_; }
  double interval() const { return interval_; }

  /// nmon-analyser-style CSV: one row per sample, one column per metric.
  std::string to_csv() const;

 private:
  void tick();

  virt::Cloud& cloud_;
  net::Fabric& fabric_;
  std::vector<virt::VmId> vms_;
  double interval_;
  std::vector<Sample> samples_;
  std::vector<double> prev_vm_cpu_integral_;
  std::vector<double> prev_vm_net_integral_;
  std::vector<double> prev_vm_disk_integral_;
  std::vector<double> prev_host_cpu_integral_;
  sim::Engine::EventId event_{};
};

/// Aggregated view of a trace: averages, peaks and the bottleneck verdict
/// the paper derives from nmon output.
class TraceAnalyser {
 public:
  struct Report {
    double avg_vm_cpu = 0.0;
    double peak_vm_cpu = 0.0;
    std::vector<double> avg_host_cpu;
    std::vector<double> avg_host_tx;
    std::vector<double> avg_host_rx;
    double avg_nfs_disk = 0.0;
    double peak_nfs_disk = 0.0;
    double avg_vm_mem = 0.0;   ///< MB, averaged over VMs and samples
    double peak_vm_mem = 0.0;  ///< MB, highest single-VM sample
    /// Distribution summaries over all per-sample utilization values.
    double p50_vm_cpu = 0.0;
    double p95_vm_cpu = 0.0;
    double p50_nfs_disk = 0.0;
    double p95_nfs_disk = 0.0;
    double p95_host_cpu = 0.0;
    double p95_net = 0.0;  ///< over host tx and rx utilization
    /// "cpu", "network" or "nfs-disk" — highest average utilization.
    std::string bottleneck;
    /// Index of the busiest VM by average CPU (into monitor.vms()).
    std::size_t busiest_vm = 0;
  };

  static Report analyse(const NmonMonitor& monitor);
};

}  // namespace vhadoop::monitor
