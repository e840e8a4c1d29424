#include "monitor/nmon.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace vhadoop::monitor {

NmonMonitor::NmonMonitor(virt::Cloud& cloud, net::Fabric& fabric, std::vector<virt::VmId> vms,
                         double interval_seconds)
    : cloud_(cloud), fabric_(fabric), vms_(std::move(vms)), interval_(interval_seconds) {
  if (!(interval_seconds > 0.0) || !std::isfinite(interval_seconds)) {
    throw std::invalid_argument("NmonMonitor: interval_seconds must be positive and finite");
  }
  prev_vm_cpu_integral_.assign(vms_.size(), 0.0);
  prev_vm_net_integral_.assign(vms_.size(), 0.0);
  prev_vm_disk_integral_.assign(vms_.size(), 0.0);
  prev_host_cpu_integral_.assign(cloud_.host_count(), 0.0);
}

void NmonMonitor::start() {
  if (event_.valid()) return;
  // Baseline the integrals so the first sample covers exactly one interval.
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    prev_vm_cpu_integral_[i] = cloud_.vm_cpu_busy_integral(vms_[i]);
    prev_vm_net_integral_[i] = cloud_.vm_net_busy_integral(vms_[i]);
    prev_vm_disk_integral_[i] = cloud_.vm_disk_busy_integral(vms_[i]);
  }
  for (std::size_t h = 0; h < cloud_.host_count(); ++h) {
    prev_host_cpu_integral_[h] = cloud_.host_cpu_busy_integral(h);
  }
  // Daemon event: sampling never keeps the simulation alive by itself.
  event_ = cloud_.engine().schedule_in(interval_, [this] { tick(); }, /*daemon=*/true);
}

void NmonMonitor::stop() {
  if (event_.valid()) {
    cloud_.engine().cancel(event_);
    event_ = {};
  }
}

void NmonMonitor::tick() {
  Sample s;
  s.time = cloud_.engine().now();
  s.vm_cpu.resize(vms_.size());
  s.vm_net_bytes.resize(vms_.size());
  s.vm_disk_bytes.resize(vms_.size());
  s.vm_mem.resize(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    s.vm_mem[i] = cloud_.vm_memory_used_mb(vms_[i]);
    const double cpu = cloud_.vm_cpu_busy_integral(vms_[i]);
    const double net = cloud_.vm_net_busy_integral(vms_[i]);
    const double disk = cloud_.vm_disk_busy_integral(vms_[i]);
    const double vcpus = cloud_.spec(vms_[i]).vcpus * cloud_.config().core_capacity;
    s.vm_cpu[i] = (cpu - prev_vm_cpu_integral_[i]) / (interval_ * vcpus);
    s.vm_net_bytes[i] = net - prev_vm_net_integral_[i];
    s.vm_disk_bytes[i] = disk - prev_vm_disk_integral_[i];
    prev_vm_cpu_integral_[i] = cpu;
    prev_vm_net_integral_[i] = net;
    prev_vm_disk_integral_[i] = disk;
  }
  const double host_cap =
      cloud_.config().cores_per_host * cloud_.config().core_capacity * interval_;
  for (std::size_t h = 0; h < cloud_.host_count(); ++h) {
    const double cpu = cloud_.host_cpu_busy_integral(h);
    s.host_cpu.push_back((cpu - prev_host_cpu_integral_[h]) / host_cap);
    prev_host_cpu_integral_[h] = cpu;
    s.host_tx.push_back(fabric_.tx_utilization(cloud_.host_node(h)));
    s.host_rx.push_back(fabric_.rx_utilization(cloud_.host_node(h)));
  }
  s.nfs_disk = cloud_.nfs_disk_utilization();
  samples_.push_back(std::move(s));
  event_ = cloud_.engine().schedule_in(interval_, [this] { tick(); }, /*daemon=*/true);
}

std::string NmonMonitor::to_csv() const {
  std::ostringstream out;
  out << "time";
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    const auto& name = cloud_.vm_name(vms_[i]);
    out << ',' << name << ".cpu" << ',' << name << ".net_bytes" << ',' << name << ".disk_bytes"
        << ',' << name << ".mem_mb";
  }
  for (std::size_t h = 0; h < cloud_.host_count(); ++h) {
    const auto& name = cloud_.host_name(h);
    out << ',' << name << ".cpu" << ',' << name << ".tx" << ',' << name << ".rx";
  }
  out << ",nfs.disk\n";
  for (const Sample& s : samples_) {
    out << s.time;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      out << ',' << s.vm_cpu[i] << ',' << s.vm_net_bytes[i] << ',' << s.vm_disk_bytes[i] << ','
          << s.vm_mem[i];
    }
    for (std::size_t h = 0; h < s.host_cpu.size(); ++h) {
      out << ',' << s.host_cpu[h] << ',' << s.host_tx[h] << ',' << s.host_rx[h];
    }
    out << ',' << s.nfs_disk << '\n';
  }
  return out.str();
}

TraceAnalyser::Report TraceAnalyser::analyse(const NmonMonitor& monitor) {
  Report r;
  const auto& samples = monitor.samples();
  if (samples.empty()) {
    r.bottleneck = "none";
    return r;
  }
  const std::size_t n_vms = monitor.vms().size();
  std::vector<double> vm_cpu_avg(n_vms, 0.0);
  const std::size_t n_hosts = samples[0].host_cpu.size();
  r.avg_host_cpu.assign(n_hosts, 0.0);
  r.avg_host_tx.assign(n_hosts, 0.0);
  r.avg_host_rx.assign(n_hosts, 0.0);
  // Utilization distributions: 5%-wide buckets over [0,1] plus overflow.
  obs::Histogram h_vm_cpu(obs::Histogram::linear_buckets(1.0, 20));
  obs::Histogram h_nfs(obs::Histogram::linear_buckets(1.0, 20));
  obs::Histogram h_host_cpu(obs::Histogram::linear_buckets(1.0, 20));
  obs::Histogram h_net(obs::Histogram::linear_buckets(1.0, 20));
  double mem_sum = 0.0;
  std::size_t mem_count = 0;
  for (const Sample& s : samples) {
    for (std::size_t i = 0; i < n_vms; ++i) {
      vm_cpu_avg[i] += s.vm_cpu[i];
      r.peak_vm_cpu = std::max(r.peak_vm_cpu, s.vm_cpu[i]);
      h_vm_cpu.observe(s.vm_cpu[i]);
    }
    for (std::size_t i = 0; i < s.vm_mem.size(); ++i) {
      mem_sum += s.vm_mem[i];
      ++mem_count;
      r.peak_vm_mem = std::max(r.peak_vm_mem, s.vm_mem[i]);
    }
    for (std::size_t h = 0; h < n_hosts; ++h) {
      r.avg_host_cpu[h] += s.host_cpu[h];
      r.avg_host_tx[h] += s.host_tx[h];
      r.avg_host_rx[h] += s.host_rx[h];
      h_host_cpu.observe(s.host_cpu[h]);
      h_net.observe(s.host_tx[h]);
      h_net.observe(s.host_rx[h]);
    }
    r.avg_nfs_disk += s.nfs_disk;
    r.peak_nfs_disk = std::max(r.peak_nfs_disk, s.nfs_disk);
    h_nfs.observe(s.nfs_disk);
  }
  r.p50_vm_cpu = h_vm_cpu.percentile(0.50);
  r.p95_vm_cpu = h_vm_cpu.percentile(0.95);
  r.p50_nfs_disk = h_nfs.percentile(0.50);
  r.p95_nfs_disk = h_nfs.percentile(0.95);
  r.p95_host_cpu = h_host_cpu.percentile(0.95);
  r.p95_net = h_net.percentile(0.95);
  if (mem_count > 0) r.avg_vm_mem = mem_sum / static_cast<double>(mem_count);
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < n_vms; ++i) {
    vm_cpu_avg[i] /= n;
    r.avg_vm_cpu += vm_cpu_avg[i] / static_cast<double>(n_vms);
  }
  for (std::size_t h = 0; h < n_hosts; ++h) {
    r.avg_host_cpu[h] /= n;
    r.avg_host_tx[h] /= n;
    r.avg_host_rx[h] /= n;
  }
  r.avg_nfs_disk /= n;
  r.busiest_vm = static_cast<std::size_t>(
      std::distance(vm_cpu_avg.begin(), std::max_element(vm_cpu_avg.begin(), vm_cpu_avg.end())));

  double cpu = 0.0, network = 0.0;
  for (std::size_t h = 0; h < n_hosts; ++h) {
    cpu = std::max(cpu, r.avg_host_cpu[h]);
    network = std::max({network, r.avg_host_tx[h], r.avg_host_rx[h]});
  }
  if (r.avg_nfs_disk >= cpu && r.avg_nfs_disk >= network) {
    r.bottleneck = "nfs-disk";
  } else if (network >= cpu) {
    r.bottleneck = "network";
  } else {
    r.bottleneck = "cpu";
  }
  return r;
}

}  // namespace vhadoop::monitor
