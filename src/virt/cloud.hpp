#pragma once

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace vhadoop::virt {

/// Virtualization-layer parameters. Defaults model the paper's testbed:
/// Dell T710 (2x quad-core Xeon E5620 @ 2.4 GHz, 32 GB), Xen 4.x with all
/// VM images on a shared NFS server, GbE interconnect.
struct VirtConfig {
  /// Dell T710: 2x quad-core Xeon E5620 *with hyper-threading* = 16
  /// hardware threads, so the paper's 16 single-VCPU guests on one host
  /// are not CPU-oversubscribed (each thread is modeled as a full core —
  /// a simplification noted in DESIGN.md).
  int cores_per_host = 16;
  /// Normalized compute capacity of one core (core-seconds per second).
  double core_capacity = 1.0;
  double host_memory_mb = 32 * 1024;

  /// NFS server: every virtual block device is a file on this server, so
  /// *all* VM disk I/O becomes network traffic to the NFS node plus load on
  /// its spindle — the bottleneck the paper identifies.
  double nfs_disk_bw = sim::mbyte_per_s(120);

  /// Per-VM virtual disk throughput ceiling (blkfront/blkback path).
  double vdisk_bw = sim::mbyte_per_s(90);

  /// Guest page cache: re-reads of recently written/read blocks are served
  /// from guest RAM instead of NFS. Roughly memory_mb minus the JVM heap.
  double page_cache_mb = 300.0;
  /// In-memory copy bandwidth for cache hits.
  double cache_read_bw = sim::gbit_per_s(20.0);

  /// Time to boot a VM once its image header/config blocks have been read
  /// from NFS (kernel boot + daemon start).
  double vm_boot_seconds = 12.0;
  /// Image bytes fetched from NFS during boot (copy-on-write images: only
  /// the touched blocks move).
  double vm_boot_io_bytes = 160 * sim::kMiB;

  // --- pre-copy live migration (Clark et al., NSDI'05) ---
  int max_precopy_rounds = 30;
  /// Max-min weight of the migration stream relative to guest flows.
  /// 1.0 = best effort; larger values approximate the bandwidth
  /// *reservation* of the authors' prior work (Ye et al., CLOUD'11,
  /// ref [18]): under contention the stream holds weight/(weight+n) of
  /// the NIC instead of 1/(n+1).
  double migration_stream_weight = 1.0;
  /// Stop-and-copy once the dirty set is below this.
  double stop_copy_threshold_bytes = 0.25 * sim::kMiB;
  /// Fixed downtime component: pause, final device state, ARP re-binding.
  double downtime_fixed_seconds = 0.055;
  /// Extra resume cost per byte of writable working set (shadow page-table
  /// rebuild and post-resume faulting; grows with how hot the guest is).
  double resume_cost_per_dirty_byte = 5.5e-8;
  /// Guest page size granularity for the dirty set.
  double page_bytes = 4096.0;
};

struct VmSpec {
  int vcpus = 1;
  double memory_mb = 1024.0;
};

enum class VmState { Stopped, Booting, Running, Migrating, Crashed };

using HostId = std::size_t;
using VmId = std::size_t;

/// Memory write behaviour of a guest during migration (Clark et al.'s
/// dirty-page model): a hot Writable Working Set that is re-dirtied every
/// round no matter how fast the link is, plus a slower background rate.
struct DirtyModel {
  /// Background page-dirty rate, bytes/second.
  double rate = 0.0;
  /// Writable working set: bytes rewritten continuously (pre-copy cannot
  /// converge below this).
  double wws_bytes = 0.0;

  static DirtyModel idle() { return {0.1 * sim::kMiB, 0.125 * sim::kMiB}; }
  /// A Hadoop worker running Wordcount: JVM heap churn + map output buffers.
  static DirtyModel wordcount() { return {6 * sim::kMiB, 16 * sim::kMiB}; }
};

/// Result of one VM live migration (what the Virt-LM benchmark records).
struct MigrationResult {
  VmId vm = 0;
  double migration_time = 0.0;  ///< first pre-copy byte to resume, seconds
  double downtime = 0.0;        ///< stop-and-copy unavailability, seconds
  int rounds = 0;               ///< pre-copy iterations
  double transferred_bytes = 0.0;
};

/// The Virtualization Module: physical hosts, the NFS image server, guest
/// VMs, and the primitive operations every higher layer is built from —
/// virtual CPU burn, virtual disk I/O (NFS-backed), VM-to-VM transfers and
/// pre-copy live migration.
class Cloud {
 public:
  /// Trace lane for migration spans (task slots occupy the low tids).
  static constexpr int kMigrationTid = 1000;

  Cloud(sim::Engine& engine, sim::FluidModel& model, net::Fabric& fabric, VirtConfig config);

  // --- topology -----------------------------------------------------------
  HostId add_host(const std::string& name);
  std::size_t host_count() const { return hosts_.size(); }
  const std::string& host_name(HostId h) const { return hosts_[h].name; }

  /// Rack identity, delegated to the fabric topology. A single-switch
  /// fabric is one rack; rack-aware behaviour upstream (HDFS placement
  /// tiers, scheduler rack locality, per-rack filers) keys off
  /// rack_count() > 1.
  int rack_count() const { return fabric_.rack_count(); }
  int rack_of_host(HostId h) const { return fabric_.rack_of(hosts_[h].node); }
  int rack_of_vm(VmId v) const {
    return vms_[v].host == kOnNfs ? fabric_.rack_of(nfs_nodes_.front())
                                  : rack_of_host(vms_[v].host);
  }

  // --- VM lifecycle -------------------------------------------------------
  /// Create a VM on `host` (throws if memory would be oversubscribed).
  VmId create_vm(const std::string& name, HostId host, VmSpec spec);

  /// Kill a VM abruptly (failure injection). All of its in-flight
  /// activities stall permanently (their completions never fire, as with a
  /// real crash); registered crash listeners are notified so upper layers
  /// (HDFS re-replication, JobTracker re-execution) can react.
  void crash_vm(VmId vm);

  /// Hang a VM silently: it stops making progress but nothing is notified
  /// (models a wedged guest the cluster has not detected — the case
  /// speculative execution exists for).
  void hang_vm(VmId vm);
  /// Subscribe to crash notifications.
  void on_crash(std::function<void(VmId)> listener) {
    crash_listeners_.push_back(std::move(listener));
  }
  bool alive(VmId vm) const {
    const VmState s = vms_[vm].state;
    return s == VmState::Running || s == VmState::Migrating || s == VmState::Booting;
  }
  /// Alive *and* able to execute (a silently hung guest is alive on paper
  /// but cannot answer a heartbeat).
  bool responsive(VmId vm) const;
  /// Boot asynchronously: fetches image blocks from NFS (contending with
  /// every other booting VM), then waits out the OS boot time.
  void boot_vm(VmId vm, std::function<void()> on_ready);
  void destroy_vm(VmId vm);

  VmState state(VmId vm) const { return vms_[vm].state; }
  HostId host_of(VmId vm) const { return vms_[vm].host; }
  const std::string& vm_name(VmId vm) const { return vms_[vm].name; }
  const VmSpec& spec(VmId vm) const { return vms_[vm].spec; }

  // --- primitive operations -----------------------------------------------
  /// Burn `core_seconds` of guest CPU. Limited by the VM's VCPU allotment
  /// and by fair sharing of the host's physical cores.
  void run_compute(VmId vm, double core_seconds, std::function<void()> on_complete,
                   double weight = 1.0);

  /// Virtual block-device read/write: crosses the host NIC to the NFS
  /// server and occupies the NFS spindle. A non-empty `cache_key` names the
  /// data (e.g. an HDFS block id): writes populate the guest page cache,
  /// and reads of cached keys are served from RAM — this is what makes
  /// re-reads cheap and shuffle disk traffic hot, as on real guests.
  void disk_read(VmId vm, double bytes, std::function<void()> on_complete, double weight = 1.0,
                 const std::string& cache_key = {});
  void disk_write(VmId vm, double bytes, std::function<void()> on_complete, double weight = 1.0,
                  const std::string& cache_key = {});

  /// True if `cache_key` is currently resident in the VM's page cache.
  bool cached(VmId vm, const std::string& cache_key) const;
  /// Mark data as resident (e.g. after it arrived over the network).
  void cache_insert(VmId vm, const std::string& cache_key, double bytes);

  /// Write short-lived scratch data (map spills, temp files). While it fits
  /// the page cache it is a memory-speed write that Linux write-back never
  /// flushes before deletion; beyond the cache it degrades to a real
  /// (NFS-backed) disk write.
  void scratch_write(VmId vm, double bytes, std::function<void()> on_complete,
                     const std::string& cache_key, double weight = 1.0);

  /// Guest-to-guest network transfer (bridge if co-located, NIC otherwise).
  void vm_transfer(VmId src, VmId dst, double bytes, std::function<void()> on_complete,
                   double weight = 1.0);

  /// Xen credit-scheduler cap: limit the VM to `fraction` of one core per
  /// VCPU (xm sched-credit -c). 1.0 restores the full allotment. The
  /// MapReduce Tuner uses this to throttle noisy guests.
  void set_vcpu_cap(VmId vm, double fraction);
  double vcpu_cap(VmId vm) const { return vms_[vm].vcpu_cap; }

  /// One-way small-message latency between two guests.
  double message_latency(VmId src, VmId dst) const;

  // --- live migration -----------------------------------------------------
  /// Pre-copy migrate `vm` to `dst` under the given guest dirty-page
  /// behaviour. The transfer is dom0 traffic: it contends with guest flows
  /// on both NICs.
  void migrate(VmId vm, HostId dst, DirtyModel dirty,
               std::function<void(const MigrationResult&)> on_done);

  // --- introspection for the monitor --------------------------------------
  double host_cpu_busy_integral(HostId h) const { return model_.busy_integral(hosts_[h].cpu); }
  double vm_cpu_busy_integral(VmId v) const { return model_.busy_integral(vms_[v].vcpu); }
  double vm_net_busy_integral(VmId v) const { return model_.busy_integral(vms_[v].vnic); }
  double vm_disk_busy_integral(VmId v) const { return model_.busy_integral(vms_[v].vdisk); }
  /// Peak utilization across the filer fleet (a single-rack cloud has one
  /// filer, so this is exactly the old single-spindle reading).
  double nfs_disk_utilization() const;
  /// Total busy time across all filer spindles.
  double nfs_disk_busy_integral() const;
  net::Fabric::NodeId host_node(HostId h) const { return hosts_[h].node; }
  double host_memory_free_mb(HostId h) const;

  /// Estimated resident memory of the guest in MB (the paper's nmon
  /// samples memory alongside CPU/disk/network). Modeled as a base
  /// working set — kernel, daemons, idle JVM — plus whatever currently
  /// sits in the guest page cache, clamped to the VM's allocation. Dead
  /// guests report 0.
  double vm_memory_used_mb(VmId v) const;

  const VirtConfig& config() const { return config_; }
  net::Fabric& fabric() { return fabric_; }
  sim::Engine& engine() { return engine_; }
  sim::FluidModel& model() { return model_; }

 private:
  struct Host {
    std::string name;
    net::Fabric::NodeId node;
    sim::FluidModel::ResourceId cpu;
    double memory_used_mb = 0.0;
  };

  /// LRU page cache over named block-sized entries.
  class PageCache {
   public:
    explicit PageCache(double capacity_bytes) : capacity_(capacity_bytes) {}
    bool contains(const std::string& key) const { return entries_.contains(key); }
    void touch(const std::string& key);
    void insert(const std::string& key, double bytes);
    double used_bytes() const { return used_; }

   private:
    double capacity_;
    double used_ = 0.0;
    std::list<std::pair<std::string, double>> lru_;  // front = most recent
    std::unordered_map<std::string, std::list<std::pair<std::string, double>>::iterator>
        entries_;
  };

  struct Vm {
    std::string name;
    HostId host = 0;
    VmSpec spec;
    VmState state = VmState::Stopped;
    sim::FluidModel::ResourceId vcpu;
    sim::FluidModel::ResourceId vnic;
    sim::FluidModel::ResourceId vdisk;
    std::shared_ptr<PageCache> cache;
    double vcpu_cap = 1.0;
    bool alive = true;
  };

  struct Migration;

  /// The filer serving a host's virtual block devices: the single shared
  /// NFS server on a one-rack cloud, the host's rack-local filer otherwise.
  net::Fabric::NodeId filer_node(HostId h) const {
    return nfs_nodes_.size() == 1 ? nfs_nodes_.front()
                                  : nfs_nodes_[static_cast<std::size_t>(rack_of_host(h))];
  }
  sim::FluidModel::ResourceId filer_disk(HostId h) const {
    return nfs_disks_.size() == 1 ? nfs_disks_.front()
                                  : nfs_disks_[static_cast<std::size_t>(rack_of_host(h))];
  }

  void precopy_round(std::shared_ptr<Migration> mig);

  static constexpr HostId kOnNfs = static_cast<HostId>(-1);

  sim::Engine& engine_;
  sim::FluidModel& model_;
  net::Fabric& fabric_;
  VirtConfig config_;
  std::vector<Host> hosts_;
  std::vector<Vm> vms_;
  /// One NFS filer per rack (exactly one on a single-rack cloud), created
  /// before any host so resource-id order is configuration-determined.
  std::vector<net::Fabric::NodeId> nfs_nodes_;
  std::vector<sim::FluidModel::ResourceId> nfs_disks_;
  std::vector<std::function<void(VmId)>> crash_listeners_;

  obs::Counter* m_vms_booted_;
  obs::Counter* m_vms_crashed_;
  obs::Counter* m_migrations_;
  obs::Counter* m_precopy_rounds_;
  obs::Counter* m_dirtied_bytes_;
  obs::Counter* m_copied_bytes_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Histogram* m_downtime_seconds_;
};

}  // namespace vhadoop::virt
