#pragma once

// The Wordcount + TeraSort pair bench/scale_cluster sweeps, as one scenario
// shared with the tier-1 parity lock (tests/integration/scale_parity_test.cpp),
// so the bench and the lock can never drift apart. Callers drive the phases
// in order — boot(), stage(), run_wordcount(), run_terasort() — and time
// whichever they like.

#include <algorithm>

#include "core/platform.hpp"
#include "net/topology.hpp"
#include "workloads/terasort.hpp"

namespace vhadoop::bench {

class ScalePair {
 public:
  /// `vms` counts every VM including the namenode; `hosts_per_rack` only
  /// matters for the multi-rack fabrics (racks = ceil(hosts / width)).
  ScalePair(int vms, net::TopologyKind topology, int hosts_per_rack)
      : vms_(vms), platform_(testbed(vms, topology, hosts_per_rack)) {
    spec_.num_workers = vms - 1;
    spec_.placement = core::Placement::Spread;
    spec_.hdfs.block_size = 8 * sim::kMiB;  // 1 block ≈ 1 VM keeps maps ∝ cluster
    tera_.total_bytes = input_bytes();
    tera_.block_size = spec_.hdfs.block_size;
    tera_.num_reduces = reduces();
  }

  core::Platform& platform() { return platform_; }

  void boot() { platform_.boot_cluster(spec_); }

  /// Corpus upload from the namenode plus a TeraGen run, which lays out the
  /// per-map part files run_terasort() reads.
  void stage() {
    platform_.upload("/in/corpus", input_bytes());
    platform_.run_job(tera_.sim_teragen("/in/tera"));
  }

  /// Simulated seconds of each timed job.
  double run_wordcount() { return platform_.run_job(wordcount_job()).elapsed(); }
  double run_terasort() {
    return platform_.run_job(tera_.sim_terasort("/in/tera", "/out/tera")).elapsed();
  }

 private:
  // ~16 VMs per host (paper hosts: 16 cores / 32 GB; 1 GiB guests), VMs
  // round-robin across hosts so per-host CPU components stay bounded while
  // the shared NFS component grows with the cluster.
  static core::TestbedConfig testbed(int vms, net::TopologyKind topology, int hosts_per_rack) {
    core::TestbedConfig t;
    t.num_hosts = (vms + 15) / 16;
    t.net.topology.kind = topology;
    if (topology != net::TopologyKind::SingleSwitch) {
      t.net.topology.racks = (t.num_hosts + hosts_per_rack - 1) / hosts_per_rack;
      t.net.topology.nodes_per_rack = hosts_per_rack;
    }
    return t;
  }

  double input_bytes() const { return vms_ * 8.0 * sim::kMiB; }
  int reduces() const { return std::max(4, vms_ / 32); }

  // Wordcount sized to the cluster: one map per corpus block (~1 block per
  // VM), CPU-bound maps (tokenizing 8 MiB of text dwarfs reading it) with a
  // small shuffle into vms/32 reduces. CPU phases live in per-host
  // {vcpu, host.cpu} components, so this job is the incremental solver's
  // home turf; TeraSort is the adversarial case where everything meets at
  // the NFS disk.
  mapreduce::SimJobSpec wordcount_job() {
    mapreduce::SimJobSpec spec;
    spec.name = "wordcount";
    const int blocks = static_cast<int>(platform_.hdfs().blocks("/in/corpus").size());
    for (int b = 0; b < blocks; ++b) {
      spec.maps.push_back({"/in/corpus", b, 0.0, 2.0, 2 * sim::kMiB});
    }
    spec.reduces.assign(static_cast<std::size_t>(reduces()), {0.3, sim::kMiB});
    spec.output_path = "/out/wc";
    return spec;
  }

  int vms_;
  core::Platform platform_;
  core::ClusterSpec spec_;
  workloads::TeraSort tera_;
};

}  // namespace vhadoop::bench
