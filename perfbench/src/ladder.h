#pragma once

// The layer ladder: each rung times one public entry point of one layer
// over ops taken from the workload, from outside the library.  A layer's
// self time is its rung minus the rung below it:
//
//   sim.kernel_ns_per_event     Simulator::schedule_at + run, 32-byte captures
//   sim.epoch_barrier_us        ParallelExecutor(2)::run_epoch, 64 shards
//   workload.trace_gen_ns_per_op  wl::generate_trace over every generator
//   ebs.write_ns_per_page       StorageCluster::write + Simulator::run
//   ebs.read_ns_per_page        StorageCluster::read + Simulator::run
//   ebs.replay_ns_per_op        both, over the arrival-ordered mixed stream
//   essd.submit_ns_per_op       EssdDevice::submit over that same stream
//   ssd.submit_ns_per_op        SsdDevice::submit over that same stream
//   common.histogram_record_ns  LatencyHistogram::record over the latencies
//                               the essd rung's ops completed with

#include <cstdint>
#include <string>
#include <vector>

#include "essd/essd_config.h"
#include "spans.h"
#include "tenant/tenant.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {

/// One replayed op: the volume it targets plus the op at its arrival time.
struct ReplayOp {
  std::uint32_t vol = 0;
  uc::wl::TraceEvent ev;
};

/// What the storage rungs replay.  For the fleet workloads: the tenants
/// placed on cluster 0 and their trace ops.  For the contract audit: one
/// ESSD-1 volume and the op stream the audit submitted to one ESSD-1
/// instance.
struct LadderInput {
  uc::essd::EssdConfig base;
  /// The volumes (capacity, QoS, WFQ weight), attached in this order.
  std::vector<uc::tenant::TenantSpec> volumes;
  /// Arrival-ordered ops.
  std::vector<ReplayOp> ops;
  /// Fill every volume sequentially before each replay (untimed).  Off
  /// when the stream carries its own preconditioning.
  bool fill = true;
  /// Every generator config of the workload (the trace-generation rung).
  std::vector<uc::wl::TraceGenConfig> all_generators;
  std::vector<std::uint64_t> all_capacities;
  std::uint64_t kernel_events = 0;     ///< the workload's sim.events
  std::uint64_t histogram_samples = 0; ///< samples the workload records
};

LadderInput fleet_ladder_input(const uc::fleet::GeneratedFleet& fleet,
                               std::uint64_t sim_events,
                               std::uint64_t ops_completed);
/// `recorded` is ContractRun::essd1_ops of the same call.
LadderInput contract_ladder_input(const std::vector<RecordedOp>& recorded,
                                  std::uint64_t sim_events,
                                  std::uint64_t ops_completed);

struct LadderResult {
  double kernel_ns_per_event = 0.0;
  double epoch_barrier_us = 0.0;
  double trace_gen_ns_per_op = 0.0;
  double histogram_record_ns = 0.0;
  double ebs_write_ns_per_page = 0.0;
  double ebs_read_ns_per_page = 0.0;
  double ebs_replay_ns_per_op = 0.0;
  double essd_submit_ns_per_op = 0.0;
  double ssd_submit_ns_per_op = 0.0;
  std::uint64_t replayed_ops = 0;
  /// Counters of the rung devices (QoS gate of the ESSD rung, FTL of the
  /// SSD rung).
  LayerCounters counters;
  /// Rung replays that did not complete every op they issued.
  std::vector<std::string> errors;
};

/// Runs every rung (each a median of a few repetitions), one span each.
LadderResult run_ladder(const LadderInput& in, SpanRecorder& spans);

}  // namespace perfbench
