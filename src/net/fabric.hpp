#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/time.hpp"

namespace vhadoop::net {

/// Network model parameters for the simulated testbed. Defaults match the
/// paper's environment: GbE NICs between Dell T710 hosts, VM-to-VM traffic
/// on the same host crossing the Xen software bridge, and a measurable
/// virtualization penalty on the VM I/O path (netfront/netback copies
/// through dom0 — Cherkasova & Gardner, USENIX ATC'05). Validated at
/// Fabric construction: non-positive bandwidths or latencies would turn
/// into NaN/degenerate flow rates in the fluid solver.
struct NetConfig {
  /// Physical NIC bandwidth, per direction (full duplex).
  double nic_bw = sim::gbit_per_s(1.0);
  /// Intra-host software-bridge bandwidth (memory-speed copies via dom0).
  double bridge_bw = sim::gbit_per_s(8.0);
  /// Same-VM (loopback) bandwidth.
  double loopback_bw = sim::gbit_per_s(16.0);
  /// One-way latency per network hop (switch traversal).
  double hop_latency = 25e-6;
  /// Extra latency contributed by the virtual I/O path of each virtualized
  /// endpoint (event-channel + grant-copy costs).
  double vm_latency = 60e-6;
  /// Throughput efficiency of a virtualized endpoint relative to bare
  /// metal. Applied as a per-flow rate cap, not a capacity reduction: many
  /// concurrent VM flows can still fill the physical NIC.
  double vm_io_efficiency = 0.75;
  /// Fabric shape between the node NICs (single switch, fat-tree, rotor).
  TopologyConfig topology;
};

/// Flow-level network fabric: per-node full-duplex NIC resources joined by a
/// pluggable topology (non-blocking single switch by default, fat-tree or
/// rotor fabric for rack-scale clusters — see net/topology.hpp), plus a
/// per-node software bridge for intra-host VM-to-VM traffic. Nodes are
/// physical machines (and the NFS servers).
class Fabric {
 public:
  using NodeId = std::size_t;

  /// Trace process for network flow spans. When the tracer is enabled,
  /// every non-loopback transfer records a span on its own lane under this
  /// pid, cause-linked ("flow") to the tracer's ambient span — the
  /// activity (shuffle fetch, HDFS block) that started the flow.
  static constexpr int kNetPid = 9996;

  struct Endpoint {
    NodeId node = 0;
    /// True when the traffic terminates inside a guest VM (virtio/netfront
    /// path); false for bare-metal endpoints such as the NFS server.
    bool virtualized = true;
    /// Optional VM identity; flows with equal node+vm are loopback.
    int vm = -1;
  };

  struct TransferSpec {
    Endpoint src;
    Endpoint dst;
    double bytes = 0.0;
    double weight = 1.0;
    /// Additional resources the flow must traverse (e.g. the NFS disk for
    /// virtual-block-device traffic).
    std::vector<sim::FluidModel::ResourceId> extra_resources;
    std::function<void()> on_complete;
  };

  /// Throws std::invalid_argument when `config` carries a non-positive
  /// bandwidth/latency or an invalid topology shape.
  Fabric(sim::Engine& engine, sim::FluidModel& model, NetConfig config);

  /// Add a physical node. `rack_hint` >= 0 pins it to that rack; -1 lets
  /// the topology auto-assign by fill order (nodes_per_rack per rack).
  NodeId add_node(const std::string& name, int rack_hint = -1);

  // --- topology ------------------------------------------------------------
  int rack_count() const { return topology_->rack_count(); }
  int rack_of(NodeId n) const { return nodes_[n].rack; }
  const Topology& topology() const { return *topology_; }

  /// Start a flow. Latency (propagation + virtual I/O path) is charged
  /// before the fluid transfer begins. Returns immediately; `on_complete`
  /// fires when the last byte lands.
  void transfer(TransferSpec spec);

  /// End-to-end latency of a minimal message between the endpoints (used
  /// for RPC/heartbeat modeling).
  double message_latency(const Endpoint& src, const Endpoint& dst) const;

  // Utilization accessors for the monitor.
  double tx_utilization(NodeId n) const { return model_.utilization(nodes_[n].tx); }
  double rx_utilization(NodeId n) const { return model_.utilization(nodes_[n].rx); }

  const NetConfig& config() const { return config_; }

 private:
  struct Node {
    std::string name;
    sim::FluidModel::ResourceId tx;
    sim::FluidModel::ResourceId rx;
    sim::FluidModel::ResourceId bridge;
    int rack = 0;
  };

  /// Claim/recycle a trace lane under kNetPid (flows overlap freely, so
  /// each needs its own lane for span nesting to hold).
  int acquire_flow_lane();
  void release_flow_lane(int lane);

  sim::Engine& engine_;
  sim::FluidModel& model_;
  NetConfig config_;
  std::unique_ptr<Topology> topology_;
  std::vector<Node> nodes_;
  std::vector<int> free_flow_lanes_;
  int next_flow_lane_ = 0;
  obs::Counter* flows_started_;
  obs::Counter* bytes_requested_;
  obs::Counter* flows_loopback_;
  obs::Counter* flows_bridge_;
  obs::Counter* flows_wire_;
  obs::Counter* flows_inter_rack_;
};

}  // namespace vhadoop::net
