#pragma once

/// \file placement.h
/// Cross-cluster placement: several `StorageCluster`s behind one host, a
/// pluggable policy deciding which cluster each tenant volume lands on, and
/// watermark-triggered live migration to repair imbalance.
///
/// The paper measures one volume on one cluster; a provider's real degree
/// of freedom is *where volumes land*.  Interference follows placement:
/// spreading tenants buys isolation at the cost of per-cluster utilisation,
/// packing maximises utilisation and concentrates noisy neighbours, and
/// migration converts a bad initial decision into copy traffic that itself
/// competes on the shared pipes (`sched::IoClass::kMigration`).
///
/// `ShardedHost` with one cluster reproduces `tenant::SharedClusterHost`
/// exactly (same seeds, same attach order, same weight fold), so every
/// single-cluster result is unchanged.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "sim/parallel.h"
#include "ebs/cleaner.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "essd/essd_device.h"
#include "placement/migration.h"
#include "tenant/fairness.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"
#include "workload/runner.h"

namespace uc::placement {

/// Which cluster a new volume attaches to.
enum class Policy {
  kSpread,            ///< round-robin across clusters
  kPack,              ///< first cluster with room (`pack_limit_bytes`)
  kLeastLoadedBytes,  ///< cluster with the fewest attached bytes
  kLeastLoadedWeight, ///< cluster with the smallest summed tenant weight
  /// Interference-aware: initial placement greedily levels the tenants'
  /// *expected offered load* (`expected_offered_bps`) instead of their
  /// attached bytes — a hot 8 GiB volume outweighs a cold 1 TiB one — and
  /// watermark rebalancing steers by each cluster's measured busy/stall
  /// signal (`ebs::ClusterBusyStats::signal()` deltas between checks)
  /// rather than by capacity.
  kLeastInterference,
};

const char* policy_name(Policy p);
/// Parses "spread" / "pack" / "least-loaded" / "least-weight" /
/// "least-interference".
bool parse_policy(const std::string& text, Policy* out);
std::vector<Policy> all_policies();

/// The load a tenant is expected to offer, in bytes/s — the planning
/// signal of `Policy::kLeastInterference`.  Synthetic open-loop tenants
/// estimate from their generator (base + burst-duty IOPS x mean I/O size,
/// at the replay's rate scale); everything else falls back to the
/// provisioned QoS byte budget.
double expected_offered_bps(const tenant::TenantSpec& t);

/// Caps how much repair the control plane may do at once: watermark
/// rebalancing never holds more than `max_concurrent` live migrations, all
/// concurrent copy streams share one `copy_bandwidth_bps` budget
/// (`MigrationPacer`; 0 = unpaced), and a run performs at most `max_total`
/// migrations (0 = unbounded).  The defaults reproduce the pre-budget
/// behaviour: one migration at a time, back-to-back copy fragments.
struct MigrationBudget {
  int max_concurrent = 1;
  double copy_bandwidth_bps = 0.0;
  int max_total = 0;
};

/// Per-cluster seed stride: cluster `c` of a multi-cluster host derives its
/// placement and jitter streams from `seed + c * stride`, so cluster 0
/// reproduces the single-cluster host exactly.
inline constexpr std::uint64_t kClusterSeedStride = 0x632be59bd9b4e019ull;

struct PlacementConfig {
  int clusters = 1;
  Policy policy = Policy::kSpread;

  /// Pack: a cluster accepts volumes until attaching the next one would
  /// push its attached bytes past this; 0 = unbounded (everything lands on
  /// cluster 0).  When nothing fits anywhere, least-loaded-by-bytes wins.
  std::uint64_t pack_limit_bytes = 0;

  /// Live rebalance: when one cluster's attached bytes exceed
  /// `rebalance_watermark x` the cross-cluster mean, the host migrates its
  /// largest volume to the least-loaded cluster (if that strictly lowers
  /// the maximum).  <= 1 disables rebalancing.
  double rebalance_watermark = 0.0;
  SimTime rebalance_interval = 50 * units::kMs;

  MigrationConfig migration;
  /// Concurrency / copy-bandwidth caps on rebalancing (defaults reproduce
  /// the single-migration, unpaced behaviour exactly).
  MigrationBudget budget;
};

/// Pure placement planning (exposed for tests): cluster index per tenant,
/// in spec order.
std::vector<int> plan_placement(const PlacementConfig& cfg,
                                const std::vector<tenant::TenantSpec>& tenants);

struct MigrationRecord {
  std::size_t tenant = 0;  ///< spec index
  int from_cluster = 0;
  int to_cluster = 0;
  MigrationStats stats;
};

/// Accounting for the slice loop (zero for a static fleet, which runs its
/// measured window as one unbounded slice).  Reported, never digest-mixed:
/// the partition evolution depends only on config + signals, so these are
/// themselves thread-count-invariant, but they describe the engine, not the
/// fleet.
struct SliceExecStats {
  std::uint64_t slices = 0;   ///< slice barriers crossed
  std::uint64_t fusions = 0;  ///< net group merges across barriers
  std::uint64_t splits = 0;   ///< net group splits across barriers
  int max_group_clusters = 1; ///< largest fused group ever advanced together
};

/// Outcome of a multi-cluster colocated run.
struct PlacementResult {
  std::vector<wl::JobStats> stats;  ///< per tenant, spec order
  /// Per-tenant peak outstanding I/Os and replayed-trace summaries (the
  /// latter zero-event for closed-loop tenants); see `tenant::HostResult`.
  std::vector<std::uint64_t> backlog_peak;
  std::vector<wl::TraceSummary> traces;
  std::vector<int> initial_cluster;
  std::vector<int> final_cluster;
  std::vector<MigrationRecord> migrations;
  /// Most live migrations in flight at once — must never exceed the
  /// configured `MigrationBudget::max_concurrent`.
  int peak_concurrent_migrations = 0;
  SimTime makespan = 0;
  SimTime measure_start = 0;
  /// Per-cluster activity within the measured window.
  std::vector<ebs::ClusterStats> cluster;
  std::vector<ebs::CleanerStats> cleaner;
  /// Per-cluster shared-resource occupancy (busy + stall, per-class slices)
  /// over the same window — the interference signal, reported but *not*
  /// digest-mixed (digests pin tenant- and cluster-observable outcomes;
  /// occupancy is derived accounting).
  std::vector<ebs::ClusterBusyStats> busy;
  /// Events processed by the cluster simulators over fill + measure — the
  /// numerator of the parallel engine's events/sec trajectory.  Every event
  /// belongs to exactly one cluster's simulator.
  std::uint64_t sim_events = 0;
  /// Slice/fusion accounting of the slice loop.
  SliceExecStats sliced;
};

/// One FNV-1a digest per cluster condensing everything tenant- and
/// cluster-observable about its run: per-tenant job stats, latency/slowdown
/// percentiles, backlog peaks, trace summaries, final placement, and
/// per-cluster + cleaner counters.  A tenant digests into the cluster that
/// planned it, a migration into its source cluster.  Computed from the
/// merged result, so "identical at every thread count" is a vector
/// equality.
std::vector<std::uint64_t> shard_digests(const PlacementResult& merged);

/// The colocation host for any number of clusters: N tenants over K
/// clusters, each cluster a *shard* on its own `Simulator` with the
/// `EssdDevice` + `wl::LoadSource` (closed-loop job or open-loop replay) of
/// every tenant planned onto it.  Shards advance concurrently on a
/// `sim::ParallelExecutor`.
///
/// Cluster `c` takes its seeds from `seed + c * kClusterSeedStride` and
/// folds its WFQ weights in local attach order, so one cluster reproduces
/// `tenant::SharedClusterHost` exactly.
///
/// One schedule: a fill epoch (every shard preconditions and drains), a
/// barrier that opens the measured window at the slowest drain, then the
/// slice loop.  A static fleet (no rebalancing, or one cluster) runs the
/// measured window as one unbounded slice — two epochs in all.  A
/// rebalancing fleet (`rebalance_watermark > 1.0`, > 1 cluster) cuts it
/// into `rebalance_interval` slices; within a slice each fused shard group
/// advances independently; at each slice barrier the coordinator reads the
/// per-cluster busy/stall signals, runs the placement policy (at most one
/// migration per barrier, under the `MigrationBudget`), and fuses exactly
/// the coupled source/dest/home shards of live migrations into groups that
/// advance in event-timestamp lockstep.  After cutover, the coupling
/// shrinks to {home, destination} until the tenant's load drains, then the
/// group splits back.  Partition evolution depends only on config +
/// signals — never on the thread count — so per-cluster digests are
/// bit-identical at any `--threads` value.
class ShardedHost {
 public:
  ShardedHost(const essd::EssdConfig& base,
              std::vector<tenant::TenantSpec> tenants,
              const PlacementConfig& cfg);

  /// A fill epoch, then one epoch per slice, then the merge.
  PlacementResult run(sim::ParallelExecutor& exec);

  int cluster_count() const { return static_cast<int>(shards_.size()); }
  const ebs::StorageCluster& cluster(int c) const {
    return *shards_[static_cast<std::size_t>(c)].cluster;
  }
  /// The volume currently serving tenant `i` (its new home's volume after a
  /// migration cut over).
  ebs::VolumeId volume_of(std::size_t i) const;
  /// Whether `run` cuts the measured window into rebalance slices.
  bool sliced() const { return sliced_; }
  void check_invariants() const;
  /// Solo baseline for tenant `i`: alone on a private cluster derived from
  /// the same per-cluster base profile and local attach index it had in the
  /// colocated run, so only colocation differs.
  wl::JobStats run_solo(std::size_t i) const;

 private:
  /// One cluster on its own simulator: the devices and load sources of the
  /// tenants planned onto it, in attach order, and the measured-window
  /// baselines.
  struct Shard {
    std::vector<tenant::TenantSpec> specs;  ///< per local index
    /// The fleet base with this cluster's seed offsets and weight fold.
    essd::EssdConfig base;
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<ebs::StorageCluster> cluster;
    std::vector<std::unique_ptr<essd::EssdDevice>> devices;
    std::vector<std::unique_ptr<wl::LoadSource>> sources;
    ebs::ClusterStats cluster_before;
    ebs::CleanerStats cleaner_before;
    ebs::ClusterBusyStats busy_before;
  };

  /// Opens `sh`'s measured window at `t0`: advances its idle clock,
  /// snapshots the before-stats, and starts every load.
  void begin_measure(Shard& sh, SimTime t0);
  /// Builds the merged result in spec order from the drained shards,
  /// moving each tenant's stats out of its load source (once, from `run`).
  PlacementResult collect(SimTime measure_start);

  /// Advances every member simulator of one group to `bound` (`kNoTime` =
  /// drain), stepping the members in event-timestamp lockstep so cross-
  /// simulator callbacks (migration copies, a cutover tenant's remote
  /// cluster) always observe aligned clocks.
  void advance_group(const std::vector<std::size_t>& members, SimTime bound);
  /// The current shard partition: union-find over the live couplings
  /// (active migrations couple {home, source, dest}; a cutover-but-
  /// undrained tenant couples {home, current cluster}), rebuilt from
  /// scratch at every barrier, ordered by smallest member shard.
  std::vector<std::vector<std::size_t>> coupled_groups() const;
  /// One watermark check at a slice barrier; starts (at most) one
  /// migration, within the configured `MigrationBudget`.  Bytes-driven
  /// policies move the largest volume off the biggest cluster;
  /// `kLeastInterference` moves the expectedly-hottest volume off the
  /// cluster with the largest busy/stall delta since the previous check.
  bool rebalance();
  bool rebalance_bytes();
  bool rebalance_signal();
  void start_migration(std::size_t tenant, int to_cluster);
  /// Copy bandwidth is budgeted per fused group: gives every group with
  /// active migrations exactly one pacer for `groups`, merging the pacers
  /// of groups that fused and copying the pacer of a group that split.
  void reconcile_pacers(const std::vector<std::vector<std::size_t>>& groups);
  int active_migrations() const;
  bool under_budget() const;
  bool tenant_finished(std::size_t tenant) const;

  PlacementConfig cfg_;
  std::vector<tenant::TenantSpec> tenants_;
  std::vector<int> planned_;  ///< cluster per tenant (the one plan)
  std::vector<Shard> shards_;  ///< one per cluster
  std::vector<std::size_t> shard_of_tenant_;
  std::vector<std::size_t> local_of_tenant_;
  bool sliced_ = false;

  // Coordinator state.  Mutated either at barriers (single threaded) or
  // from migration done-callbacks, which run on the worker advancing the
  // migration's fused group — distinct tenants/records per group, and
  // byte-sized flags, so groups never race.
  std::vector<int> cluster_of_;          ///< current cluster per tenant
  std::vector<std::uint8_t> migrating_;  ///< mid-migration
  std::vector<std::uint8_t> migrated_;   ///< moved once (signal path)
  std::vector<std::unique_ptr<VolumeMigrator>> migrators_;  ///< per record
  std::vector<MigrationPacer*> record_pacer_;  ///< per record; null = unpaced
  std::vector<std::unique_ptr<MigrationPacer>> pacers_;
  std::vector<MigrationRecord> records_;
  /// Per-cluster busy/stall signal at the previous rebalance check — the
  /// baseline the signal-driven policy diffs against.
  std::vector<SimTime> signal_at_check_;
  int peak_concurrent_ = 0;
  SliceExecStats slice_stats_;
  bool ran_ = false;
};

/// `tenant::run_scenario`, but over a multi-cluster topology: same tenant
/// mixes, same measured window, plus per-cluster fairness slices and the
/// migration log.
struct PlacementScenarioOptions {
  tenant::ScenarioOptions base;
  PlacementConfig placement;
};

struct PlacementScenarioResult {
  tenant::Scenario scenario = tenant::Scenario::kFairShare;
  std::vector<tenant::TenantSpec> tenants;
  std::vector<wl::JobStats> colocated;
  std::vector<wl::JobStats> solo;  ///< empty when baselines disabled
  std::vector<std::uint64_t> backlog_peak;
  std::vector<wl::TraceSummary> traces;
  tenant::FairnessReport report;   ///< across all tenants
  /// Fairness within each cluster (tenants grouped by *final* placement;
  /// a migrated tenant's stats span both homes and are attributed to the
  /// destination).
  std::vector<tenant::FairnessReport> per_cluster;
  std::vector<int> initial_cluster;
  std::vector<int> final_cluster;
  std::vector<MigrationRecord> migrations;
  std::vector<ebs::ClusterStats> cluster;
  std::vector<ebs::CleanerStats> cleaner;
  std::vector<ebs::ClusterBusyStats> busy;
  SimTime makespan = 0;
  /// Per-cluster FNV digests (`shard_digests`) and total simulator events —
  /// always computed, so runs of the same scenario at different thread
  /// counts can be compared with one vector equality.
  std::vector<std::uint64_t> shard_digest;
  std::uint64_t sim_events = 0;
};

/// Runs the scenario as a `ShardedHost` on `opt.base.threads` worker
/// threads (solo baselines fan out per tenant on the same executor).
PlacementScenarioResult run_placement_scenario(
    tenant::Scenario s, const PlacementScenarioOptions& opt);

}  // namespace uc::placement
