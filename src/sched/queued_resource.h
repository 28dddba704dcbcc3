#pragma once

/// \file queued_resource.h
/// The contention substrate: one (or k) servers, a busy horizon, and a
/// pluggable `Scheduler` deciding who goes next.
///
/// Two grant paths share the same horizon arithmetic:
///
/// - **Synchronous (FIFO)** — `acquire()` / a FIFO-policy `submit()` grants
///   immediately: start = max(arrival, earliest-free), completion returned
///   (or passed to the grant callback) on the spot.  This is byte-for-byte
///   the horizon-reservation primitive the simulator always had, so a FIFO
///   run is bit-identical to the pre-sched code.
/// - **Queued (WFQ / PRIO)** — `submit()` enqueues the reservation; a
///   dispatch loop serves the scheduler's pick whenever a server frees,
///   firing the grant at dispatch time with the completion time.  This is
///   work-conserving and can reorder across tenants and classes — which is
///   the entire point.
///
/// The resource also keeps per-class and per-tenant busy-time slices so a
/// report can say who actually occupied the pipe.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sched/scheduler.h"

namespace uc::sim {
class Simulator;
}  // namespace uc::sim

namespace uc::sched {

/// Per-server free horizons, sorted ascending.  Server counts are tiny (one
/// for almost every resource; `cpu_workers` for the reducer), so the horizons
/// live in an inline array — `min()` is a load and `replace_min()` a bounded
/// shift, with no allocation unless a resource exceeds `kInline` servers.
/// Replaces a `std::priority_queue<SimTime>` whose every reservation paid a
/// heap sift; the multiset semantics are identical.
class ServerHorizons {
 public:
  static constexpr std::size_t kInline = 8;

  explicit ServerHorizons(int servers)
      : size_(static_cast<std::size_t>(servers > 0 ? servers : 0)) {
    UC_ASSERT(servers > 0, "need at least one server");
    if (size_ > kInline) spill_.assign(size_, 0);
  }

  /// Earliest time any server is free.
  SimTime min() const { return data()[0]; }

  /// Pops the minimum and inserts `v`, keeping the array sorted.  One pass;
  /// stable for equal horizons (same multiset as the old min-heap).
  void replace_min(SimTime v) {
    SimTime* d = data();
    std::size_t i = 1;
    for (; i < size_ && d[i] < v; ++i) d[i - 1] = d[i];
    d[i - 1] = v;
  }

 private:
  SimTime* data() { return size_ > kInline ? spill_.data() : inline_.data(); }
  const SimTime* data() const {
    return size_ > kInline ? spill_.data() : inline_.data();
  }

  std::size_t size_;
  std::array<SimTime, kInline> inline_{};
  std::vector<SimTime> spill_;
};

class QueuedResource {
 public:
  /// Unconfigured: FIFO, synchronous-only, no simulator needed.
  explicit QueuedResource(int servers = 1);

  QueuedResource(const QueuedResource&) = delete;
  QueuedResource& operator=(const QueuedResource&) = delete;
  // Moves exist so resources can live in growing vectors during model
  // construction; once traffic starts, pending dispatch timers capture
  // `this`, so a live resource must never relocate (asserted).
  QueuedResource(QueuedResource&& other) noexcept;
  QueuedResource& operator=(QueuedResource&&) = delete;

  /// Attaches a simulator and a policy.  Must be called before any traffic;
  /// non-FIFO policies need the simulator for their dispatch events.
  void configure(sim::Simulator& sim, const SchedulerConfig& cfg);

  /// Re-registers one tenant's fair-share weight at runtime (weight-aware
  /// policies only; already-queued items keep their accumulated deficit).
  void set_tenant_weight(std::uint32_t tenant, double weight);

  Policy policy() const { return cfg_.policy; }

  /// Synchronous reservation: the allocation-free FIFO fast path (hot paths
  /// branch on `policy()` and use this instead of `submit()`); returns the
  /// completion time.  Identical accounting to the queued path; the default
  /// tag charges tenant 0 / `kFgWrite`.  Only valid under FIFO — on a
  /// policy-scheduled resource it would jump the queue.
  SimTime acquire(SimTime now, SimTime duration, const SchedTag& tag = {});

  /// Tagged reservation becoming eligible at `arrival`; `grant(finish)`
  /// fires when the reservation is placed (synchronously under FIFO).
  void submit(SimTime arrival, const SchedTag& tag, SimTime duration,
              Grant grant);

  /// Latest completion horizon placed on any server so far.
  SimTime busy_until() const { return busy_until_; }
  /// Total busy time across all servers (utilization accounting).
  SimTime busy_time() const { return busy_time_; }
  SimTime class_busy_time(IoClass c) const {
    return class_busy_[static_cast<int>(c)];
  }
  /// Busy time attributed to `tenant` (0 for tenants never seen).
  SimTime tenant_busy_time(std::uint32_t tenant) const {
    return tenant < tenant_busy_.size() ? tenant_busy_[tenant] : 0;
  }
  /// Pending (queued, not yet dispatched) reservations right now.
  std::size_t queue_depth() const { return sched_ ? sched_->size() : 0; }
  std::size_t queue_depth_peak() const { return depth_peak_; }

 private:
  SimTime reserve(SimTime arrival, SimTime duration, const SchedTag& tag);
  void enqueue(const SchedTag& tag, SimTime duration, Grant grant);
  void pump();

  sim::Simulator* sim_ = nullptr;
  SchedulerConfig cfg_;
  std::unique_ptr<Scheduler> sched_;  ///< null under FIFO (no queue needed)
  ServerHorizons free_at_;
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  SimTime class_busy_[kIoClassCount] = {};
  std::vector<SimTime> tenant_busy_;
  std::size_t depth_peak_ = 0;
  bool pumping_ = false;
  bool timer_armed_ = false;
};

}  // namespace uc::sched
