#include "net/fabric.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace uc::net {

Fabric::Fabric(const FabricConfig& cfg, Rng rng, sim::Simulator* sim)
    : hop_model_(cfg.hop),
      rng_(rng),
      vm_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.vm_nic_mbps)),
      node_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.node_nic_mbps)) {
  UC_ASSERT(cfg.nodes > 0, "fabric needs at least one storage node");
  UC_ASSERT(cfg.vm_nic_mbps > 0.0 && cfg.node_nic_mbps > 0.0,
            "bandwidth must be positive");
  UC_ASSERT(cfg.sched.policy == sched::Policy::kFifo || sim != nullptr,
            "non-FIFO fabric scheduling needs a simulator");
  node_tx_.resize(static_cast<std::size_t>(cfg.nodes));
  node_rx_.resize(static_cast<std::size_t>(cfg.nodes));
  node_tx_bytes_.assign(static_cast<std::size_t>(cfg.nodes), 0);
  node_rx_bytes_.assign(static_cast<std::size_t>(cfg.nodes), 0);
  if (sim != nullptr) {
    vm_tx_.configure(*sim, cfg.sched);
    vm_rx_.configure(*sim, cfg.sched);
    for (int i = 0; i < cfg.nodes; ++i) {
      node_tx_[static_cast<std::size_t>(i)].configure(*sim, cfg.sched);
      node_rx_[static_cast<std::size_t>(i)].configure(*sim, cfg.sched);
    }
  }
}

SimTime Fabric::to_node(SimTime now, int node, std::uint64_t bytes,
                        const sched::SchedTag& tag) {
  UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
  vm_tx_bytes_ += bytes;
  node_rx_bytes_[static_cast<std::size_t>(node)] += bytes;
  const SimTime sent = vm_tx_.acquire(now, vm_ns(bytes), tag);
  const SimTime arrived = sent + hop_model_.sample(rng_, 0);
  return node_rx_[static_cast<std::size_t>(node)].acquire(
      arrived, node_ns(bytes), tag);
}

SimTime Fabric::to_vm(SimTime now, int node, std::uint64_t bytes,
                      const sched::SchedTag& tag) {
  UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
  vm_rx_bytes_ += bytes;
  node_tx_bytes_[static_cast<std::size_t>(node)] += bytes;
  const SimTime sent = node_tx_[static_cast<std::size_t>(node)].acquire(
      now, node_ns(bytes), tag);
  const SimTime arrived = sent + hop_model_.sample(rng_, 0);
  return vm_rx_.acquire(arrived, vm_ns(bytes), tag);
}

void Fabric::to_node(SimTime arrival, int node, std::uint64_t bytes,
                     const sched::SchedTag& tag, sched::Grant done) {
  UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
  vm_tx_bytes_ += bytes;
  node_rx_bytes_[static_cast<std::size_t>(node)] += bytes;
  vm_tx_.submit(arrival, tag, vm_ns(bytes),
                [this, node, bytes, tag,
                 done = std::move(done)](SimTime sent) mutable {
                  const SimTime arrived = sent + hop_model_.sample(rng_, 0);
                  node_rx_[static_cast<std::size_t>(node)].submit(
                      arrived, tag, node_ns(bytes), std::move(done));
                });
}

void Fabric::to_vm(SimTime arrival, int node, std::uint64_t bytes,
                   const sched::SchedTag& tag, sched::Grant done) {
  UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
  vm_rx_bytes_ += bytes;
  node_tx_bytes_[static_cast<std::size_t>(node)] += bytes;
  node_tx_[static_cast<std::size_t>(node)].submit(
      arrival, tag, node_ns(bytes),
      [this, bytes, tag, done = std::move(done)](SimTime sent) mutable {
        const SimTime arrived = sent + hop_model_.sample(rng_, 0);
        vm_rx_.submit(arrived, tag, vm_ns(bytes), std::move(done));
      });
}

SimTime Fabric::hop_latency(std::uint64_t bytes) {
  return hop_model_.sample(rng_, bytes);
}

void Fabric::set_tenant_weight(std::uint32_t tenant, double weight) {
  vm_tx_.set_tenant_weight(tenant, weight);
  vm_rx_.set_tenant_weight(tenant, weight);
  for (auto& pipe : node_tx_) pipe.set_tenant_weight(tenant, weight);
  for (auto& pipe : node_rx_) pipe.set_tenant_weight(tenant, weight);
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.vm_tx_bytes = vm_tx_bytes_;
  s.vm_rx_bytes = vm_rx_bytes_;
  s.vm_tx_busy_ns = vm_tx_.busy_time();
  s.vm_rx_busy_ns = vm_rx_.busy_time();
  s.node_tx_bytes = node_tx_bytes_;
  s.node_rx_bytes = node_rx_bytes_;
  for (const auto& p : node_tx_) s.node_tx_busy_ns.push_back(p.busy_time());
  for (const auto& p : node_rx_) s.node_rx_busy_ns.push_back(p.busy_time());
  return s;
}

SimTime Fabric::total_busy_ns() const {
  SimTime total = vm_tx_.busy_time() + vm_rx_.busy_time();
  for (const auto& p : node_tx_) total += p.busy_time();
  for (const auto& p : node_rx_) total += p.busy_time();
  return total;
}

SimTime Fabric::class_busy_ns(sched::IoClass c) const {
  SimTime total = vm_tx_.class_busy_time(c) + vm_rx_.class_busy_time(c);
  for (const auto& p : node_tx_) total += p.class_busy_time(c);
  for (const auto& p : node_rx_) total += p.class_busy_time(c);
  return total;
}

FabricStats subtract(const FabricStats& a, const FabricStats& b) {
  // `b` may be a smaller (or default-constructed) snapshot; missing
  // entries subtract as zero.
  const auto at = [](const std::vector<std::uint64_t>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0;
  };
  FabricStats d;
  d.vm_tx_bytes = a.vm_tx_bytes - b.vm_tx_bytes;
  d.vm_rx_bytes = a.vm_rx_bytes - b.vm_rx_bytes;
  d.vm_tx_busy_ns = a.vm_tx_busy_ns - b.vm_tx_busy_ns;
  d.vm_rx_busy_ns = a.vm_rx_busy_ns - b.vm_rx_busy_ns;
  d.node_tx_bytes.resize(a.node_tx_bytes.size());
  d.node_rx_bytes.resize(a.node_rx_bytes.size());
  d.node_tx_busy_ns.resize(a.node_tx_busy_ns.size());
  d.node_rx_busy_ns.resize(a.node_rx_busy_ns.size());
  for (std::size_t i = 0; i < a.node_tx_bytes.size(); ++i) {
    d.node_tx_bytes[i] = a.node_tx_bytes[i] - at(b.node_tx_bytes, i);
    d.node_rx_bytes[i] = a.node_rx_bytes[i] - at(b.node_rx_bytes, i);
    d.node_tx_busy_ns[i] = a.node_tx_busy_ns[i] - at(b.node_tx_busy_ns, i);
    d.node_rx_busy_ns[i] = a.node_rx_busy_ns[i] - at(b.node_rx_busy_ns, i);
  }
  return d;
}

}  // namespace uc::net
