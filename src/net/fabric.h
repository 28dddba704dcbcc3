#pragma once

/// \file fabric.h
/// Datacenter network between the compute cluster (user VM + block server)
/// and the storage nodes (paper Figure 1): full-duplex NICs modeled as
/// bandwidth pipes (a `sched::QueuedResource` per direction, held at a
/// fixed ns-per-byte) and per-hop latency with lognormal jitter plus a rare
/// spike tail — the "network latency and software processing overhead
/// within the cloud storage" the paper identifies as the primary cause of
/// the ESSD latency floor (Observation 1).
///
/// Every NIC pipe routes through the sched layer: under the default FIFO
/// policy transfers serialize in arrival order exactly as before; under
/// WFQ/priority a tenant's small requests no longer queue behind another
/// tenant's bulk backlog on the shared VM uplink.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "sched/queued_resource.h"
#include "sched/sched.h"
#include "sched/scheduler.h"
#include "sim/latency_model.h"
#include "sim/simulator.h"

namespace uc::net {

struct FabricConfig {
  int nodes = 16;
  double vm_nic_mbps = 3125.0;    ///< 25 GbE at the user VM / block server
  double node_nic_mbps = 3125.0;  ///< 25 GbE per storage node
  sim::LatencyModelConfig hop;    ///< one-way switch+propagation latency
  sched::SchedulerConfig sched;   ///< queue discipline on every NIC pipe
};

/// Per-direction byte totals and pipe occupancy, VM-side and per node.
struct FabricStats {
  std::uint64_t vm_tx_bytes = 0;
  std::uint64_t vm_rx_bytes = 0;
  SimTime vm_tx_busy_ns = 0;
  SimTime vm_rx_busy_ns = 0;
  std::vector<std::uint64_t> node_tx_bytes;
  std::vector<std::uint64_t> node_rx_bytes;
  std::vector<SimTime> node_tx_busy_ns;
  std::vector<SimTime> node_rx_busy_ns;
};

/// A message transfer reserves the sender egress pipe, pays the hop
/// latency, then reserves the receiver ingress pipe (store-and-forward
/// through the ToR switch).
class Fabric {
 public:
  /// `sim` may be null only when the policy is FIFO (the synchronous grant
  /// path needs no dispatch events).
  Fabric(const FabricConfig& cfg, Rng rng, sim::Simulator* sim = nullptr);

  /// VM/block-server -> storage node `node`, synchronously: the
  /// allocation-free FIFO fast path (invalid under WFQ/PRIO); returns the
  /// delivery time.
  SimTime to_node(SimTime now, int node, std::uint64_t bytes,
                  const sched::SchedTag& tag = {});
  /// Storage node `node` -> VM/block server, synchronously.
  SimTime to_vm(SimTime now, int node, std::uint64_t bytes,
                const sched::SchedTag& tag = {});

  /// Tagged, policy-scheduled variants; `done` fires with the delivery time.
  void to_node(SimTime arrival, int node, std::uint64_t bytes,
               const sched::SchedTag& tag, sched::Grant done);
  void to_vm(SimTime arrival, int node, std::uint64_t bytes,
             const sched::SchedTag& tag, sched::Grant done);

  /// One-way hop latency sample only (for control messages).
  SimTime hop_latency(std::uint64_t bytes = 0);

  /// Re-registers `tenant`'s fair-share weight on every NIC pipe (a
  /// migrated-in volume carrying its weight to the new cluster's fabric).
  void set_tenant_weight(std::uint32_t tenant, double weight);

  int nodes() const { return static_cast<int>(node_tx_.size()); }

  std::uint64_t vm_tx_bytes() const { return vm_tx_bytes_; }
  std::uint64_t vm_rx_bytes() const { return vm_rx_bytes_; }
  std::uint64_t node_tx_bytes(int node) const {
    return node_tx_bytes_[static_cast<std::size_t>(node)];
  }
  std::uint64_t node_rx_bytes(int node) const {
    return node_rx_bytes_[static_cast<std::size_t>(node)];
  }
  /// Pipe occupancy so far (divide by elapsed time for utilization).
  SimTime vm_tx_busy_ns() const { return vm_tx_.busy_time(); }
  SimTime vm_rx_busy_ns() const { return vm_rx_.busy_time(); }
  SimTime node_tx_busy_ns(int node) const {
    return node_tx_[static_cast<std::size_t>(node)].busy_time();
  }
  SimTime node_rx_busy_ns(int node) const {
    return node_rx_[static_cast<std::size_t>(node)].busy_time();
  }

  /// Snapshot of all byte/occupancy counters (subtract two snapshots to
  /// scope a measurement window).
  FabricStats stats() const;

  /// Total occupancy across every NIC pipe (VM-side + all nodes, both
  /// directions) — one addend of `ebs::StorageCluster::busy_stats()`.
  SimTime total_busy_ns() const;
  /// The same total sliced by traffic class.  Every transfer is charged to
  /// its tag's class (an untagged one to `SchedTag{}`'s `kFgWrite`), so the
  /// slices sum exactly to `total_busy_ns()`.
  SimTime class_busy_ns(sched::IoClass c) const;

 private:
  SimTime vm_ns(std::uint64_t bytes) const {
    return units::transfer_ns(bytes, vm_ns_per_byte_);
  }
  SimTime node_ns(std::uint64_t bytes) const {
    return units::transfer_ns(bytes, node_ns_per_byte_);
  }

  sim::LatencyModel hop_model_;
  Rng rng_;
  double vm_ns_per_byte_;
  double node_ns_per_byte_;
  sched::QueuedResource vm_tx_;
  sched::QueuedResource vm_rx_;
  std::vector<sched::QueuedResource> node_tx_;
  std::vector<sched::QueuedResource> node_rx_;
  std::uint64_t vm_tx_bytes_ = 0;
  std::uint64_t vm_rx_bytes_ = 0;
  std::vector<std::uint64_t> node_tx_bytes_;
  std::vector<std::uint64_t> node_rx_bytes_;
};

/// Component-wise `a - b` for measurement windows.
FabricStats subtract(const FabricStats& a, const FabricStats& b);

}  // namespace uc::net
