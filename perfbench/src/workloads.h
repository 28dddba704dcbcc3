#pragma once

// The benchmark's three workloads, the per-layer counters read from their
// public result structs, and the per-run correctness checks.
//
//   fleet-static          64 clusters / 1000 tenants, write_fraction 0.6,
//                         least-interference, no rebalancing, 1 thread
//   fleet-rebalance-read  the same population at write_fraction 0.1 with
//                         budgeted watermark rebalancing, 2 threads
//   contract-audit        ContractChecker (quick mode) auditing ESSD-1 and
//                         ESSD-2 against the scaled local SSD
//
// Everything here calls the library's public entry points only.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "contract/checker.h"
#include "ebs/cleaner.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "essd/essd_device.h"
#include "fleet/fleet.h"
#include "spans.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace perfbench {

enum class Workload { kFleetStatic, kFleetRebalanceRead, kContractAudit };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);
inline bool is_fleet(Workload w) { return w != Workload::kContractAudit; }

/// The seed every pinned digest was taken at.
inline constexpr std::uint64_t kPinnedSeed = 7;

/// Fleet population size; the full size is the benchmark's, smaller ones
/// serve the self-test (and are never digest-pinned).
struct FleetScale {
  int clusters = 64;
  int tenants = 1000;
  bool full() const { return clusters == 64 && tenants == 1000; }
};

// ---------------------------------------------------------------------------
// Layer counters
// ---------------------------------------------------------------------------

/// Counters of the layers below the workload, summed over every instance
/// that contributed (fleet clusters, audited devices, ladder devices).
struct LayerCounters {
  // ebs
  uc::ebs::ClusterStats cluster;
  std::uint64_t segments_cleaned = 0;
  std::uint64_t pages_relocated = 0;
  uc::ebs::ClusterBusyStats busy;
  // essd QoS gate
  std::uint64_t qos_throttled = 0;
  uc::LatencyHistogram qos_wait;
  // ftl
  std::uint64_t ftl_host_write_pages = 0;
  std::uint64_t ftl_flash_read_pages = 0;
  std::uint64_t ftl_user_programmed_slots = 0;
  std::uint64_t ftl_gc_relocated_slots = 0;
  std::uint64_t ftl_user_stall_ns = 0;

  void add_cluster(const uc::ebs::ClusterStats& s,
                   const uc::ebs::CleanerStats& c,
                   const uc::ebs::ClusterBusyStats& b);
  /// The QoS gate only: a shared cluster is added once, via add_cluster.
  void add_essd(const uc::essd::EssdDevice& d);
  void add_ssd(const uc::ssd::SsdDevice& d);
};

// ---------------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------------

uc::fleet::FleetSpec fleet_spec(Workload w, std::uint64_t seed,
                                const FleetScale& scale);
int fleet_threads(Workload w);

/// What the fleet correctness check reads from one `run_fleet` call.
struct FleetOutcome {
  std::vector<std::uint64_t> trace_events;   ///< per tenant, ops issued
  std::vector<std::uint64_t> completed_ops;  ///< per tenant
  int migrations = 0;
  int peak_concurrent_migrations = 0;
  bool rebalancing = false;
  uc::placement::MigrationBudget budget;
  std::vector<std::uint64_t> digests;  ///< per shard
};

FleetOutcome fleet_outcome(const uc::fleet::GeneratedFleet& fleet,
                           const uc::fleet::FleetReport& report);

/// Per-run invariants: every tenant completed every op its trace issued,
/// and the migration budget held.  Returns one message per violation.
std::vector<std::string> check_fleet(const FleetOutcome& o);

/// ebs counters of the measured window, summed over every cluster.
LayerCounters fleet_counters(const uc::fleet::FleetReport& report);

// ---------------------------------------------------------------------------
// Contract audit
// ---------------------------------------------------------------------------

/// One device instance the contract suite created through the factory.
struct DeviceRecord {
  std::string device_class;  ///< "ssd", "essd1" or "essd2"
  std::uint64_t submits = 0;
  std::uint64_t completions = 0;
  std::uint64_t sim_events = 0;  ///< its simulator's events at teardown
  double lifetime_s = 0.0;       ///< host time from creation to teardown
};

/// One data op the audit submitted to a device, at its simulated submit
/// time (every instance starts on a fresh simulator at time 0).
struct RecordedOp {
  uc::SimTime submit = 0;
  uc::IoOp op = uc::IoOp::kRead;
  uc::ByteOffset offset = 0;
  std::uint32_t bytes = 0;
};

struct ContractRun {
  std::vector<uc::contract::UnwrittenContract> contracts;  ///< ESSD-1, ESSD-2
  std::vector<DeviceRecord> devices;
  LayerCounters counters;  ///< ftl from SSD instances, ebs/QoS from ESSDs
  /// With recording on: the data ops of the ESSD-1 instance whose stream
  /// mixes reads and writes most evenly (largest min(reads, writes)).  The
  /// layer ladder replays them.
  std::vector<RecordedOp> essd1_ops;
};

/// The audit's inputs: the device configs, the checker and the device
/// factories.  Constructing it is the workload's set-up.
class ContractAudit {
 public:
  explicit ContractAudit(std::uint64_t seed);
  // The factories hold `this`.
  ContractAudit(const ContractAudit&) = delete;
  ContractAudit& operator=(const ContractAudit&) = delete;

  /// Runs both audits.  Every device instance is wrapped in a counting
  /// decorator; with tracing on, each instance's lifetime is also a span.
  /// `record_ops` keeps ESSD-1's most mixed op stream (see ContractRun).
  ContractRun run(SpanRecorder& spans, bool record_ops);

 private:
  uc::contract::DeviceFactory factory(const char* device_class);

  uc::ssd::SsdConfig ssd_;
  uc::essd::EssdConfig essd1_;
  uc::essd::EssdConfig essd2_;
  uc::contract::ContractChecker checker_;
  uc::contract::DeviceFactory reference_;
  uc::contract::DeviceFactory target1_;
  uc::contract::DeviceFactory target2_;
  // Where the factories' devices report while run() is on.
  ContractRun* sink_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  bool record_ops_ = false;
};

/// Every device instance completed every op submitted to it.
std::vector<std::string> check_contract(const ContractRun& run);

/// FNV-1a over every number of both evaluated contracts (study data and
/// verdicts).
std::uint64_t contract_digest(const ContractRun& run);

int observations_held(const ContractRun& run);

// ---------------------------------------------------------------------------
// Digest pins
// ---------------------------------------------------------------------------

/// FNV-1a over a digest vector (the per-shard fleet digests fold to one
/// value for pinning).
std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests);

/// The parent commit's digest for `w` at `kPinnedSeed` and full scale.
std::uint64_t pinned_digest(Workload w);

}  // namespace perfbench
