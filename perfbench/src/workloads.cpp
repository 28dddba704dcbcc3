#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <utility>

#include "common/digest.h"
#include "common/strfmt.h"
#include "common/units.h"
#include "essd/essd_config.h"
#include "ssd/ssd_config.h"

namespace perfbench {

using namespace uc;
using namespace uc::units;

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : {Workload::kFleetStatic, Workload::kFleetRebalanceRead,
                           Workload::kContractAudit}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetStatic:
      return "fleet-static";
    case Workload::kFleetRebalanceRead:
      return "fleet-rebalance-read";
    case Workload::kContractAudit:
      return "contract-audit";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Layer counters
// ---------------------------------------------------------------------------

void LayerCounters::add_cluster(const ebs::ClusterStats& s,
                                const ebs::CleanerStats& c,
                                const ebs::ClusterBusyStats& b) {
  cluster.written_pages += s.written_pages;
  cluster.read_pages += s.read_pages;
  cluster.cache_hit_pages += s.cache_hit_pages;
  cluster.media_read_pages += s.media_read_pages;
  cluster.readahead_fetches += s.readahead_fetches;
  cluster.stalled_writes += s.stalled_writes;
  cluster.append_stall_ns += s.append_stall_ns;
  segments_cleaned += c.segments_cleaned;
  pages_relocated += c.pages_relocated;
  busy.busy_ns += b.busy_ns;
  busy.stall_ns += b.stall_ns;
  for (std::size_t k = 0; k < b.class_busy_ns.size(); ++k) {
    busy.class_busy_ns[k] += b.class_busy_ns[k];
  }
}

void LayerCounters::add_essd(const essd::EssdDevice& d) {
  qos_throttled += d.qos().stats().throttled;
  qos_wait.merge(d.qos().stats().wait);
}

void LayerCounters::add_ssd(const ssd::SsdDevice& d) {
  const ftl::FtlStats& s = d.ftl().stats();
  ftl_host_write_pages += s.host_write_pages;
  ftl_flash_read_pages += s.flash_read_pages;
  ftl_user_programmed_slots += s.user_programmed_slots;
  ftl_gc_relocated_slots += d.ftl().gc_stats().relocated_slots;
  ftl_user_stall_ns += static_cast<std::uint64_t>(s.user_stall_ns);
}

// ---------------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------------

fleet::FleetSpec fleet_spec(Workload w, std::uint64_t seed,
                            const FleetScale& scale) {
  // bench_fleet's full population.
  fleet::FleetSpec spec;
  spec.clusters = scale.clusters;
  spec.tenants = scale.tenants;
  spec.seed = seed;
  spec.duration = 800 * kMs;
  spec.diurnal_period = spec.duration / 2;
  spec.policy = placement::Policy::kLeastInterference;
  spec.write_fraction = 0.6;
  if (w == Workload::kFleetRebalanceRead) {
    // bench_fleet's rebalance leg, read-heavy.
    spec.write_fraction = 0.1;
    spec.rebalance_watermark = 1.1;
    spec.rebalance_interval = spec.duration / 16;
    spec.budget.max_concurrent = 4;
    spec.budget.copy_bandwidth_bps = 400e6;
    spec.budget.max_total = spec.clusters;
  }
  return spec;
}

int fleet_threads(Workload w) {
  return w == Workload::kFleetRebalanceRead ? 2 : 1;
}

FleetOutcome fleet_outcome(const fleet::GeneratedFleet& fleet,
                           const fleet::FleetReport& report) {
  FleetOutcome o;
  for (std::size_t i = 0; i < fleet.tenants.size(); ++i) {
    o.trace_events.push_back(i < report.raw.traces.size()
                                 ? report.raw.traces[i].events
                                 : 0);
    o.completed_ops.push_back(
        i < report.raw.stats.size() ? report.raw.stats[i].total_ops() : 0);
  }
  o.migrations = report.migrations;
  o.peak_concurrent_migrations = report.peak_concurrent_migrations;
  o.rebalancing = fleet.placement.rebalance_watermark > 1.0;
  o.budget = fleet.placement.budget;
  o.digests = report.digests;
  return o;
}

std::vector<std::string> check_fleet(const FleetOutcome& o) {
  std::vector<std::string> errors;
  std::uint64_t issued = 0;
  for (std::size_t i = 0; i < o.trace_events.size(); ++i) {
    issued += o.trace_events[i];
    if (o.completed_ops[i] != o.trace_events[i]) {
      errors.push_back(strfmt("tenant %zu completed %" PRIu64
                              " of %" PRIu64 " trace ops",
                              i, o.completed_ops[i], o.trace_events[i]));
    }
  }
  if (issued == 0) errors.push_back("the fleet issued no ops");
  if (o.digests.empty()) errors.push_back("no shard digests");
  if (!o.rebalancing && o.migrations != 0) {
    errors.push_back(strfmt("%d migrations without rebalancing",
                            o.migrations));
  }
  if (o.peak_concurrent_migrations > o.budget.max_concurrent) {
    errors.push_back(strfmt("peak concurrent migrations %d > budget %d",
                            o.peak_concurrent_migrations,
                            o.budget.max_concurrent));
  }
  if (o.budget.max_total > 0 && o.migrations > o.budget.max_total) {
    errors.push_back(strfmt("%d migrations > budget %d", o.migrations,
                            o.budget.max_total));
  }
  return errors;
}

LayerCounters fleet_counters(const fleet::FleetReport& report) {
  LayerCounters c;
  const placement::PlacementResult& r = report.raw;
  for (std::size_t i = 0; i < r.cluster.size(); ++i) {
    c.add_cluster(r.cluster[i], r.cleaner[i], r.busy[i]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Contract audit
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kEssdCapacity = 8 * kGiB;
constexpr std::uint64_t kSsdCapacity = 4 * kGiB;

/// Decorator the audit's factories return: counts submits and completions,
/// spans the wrapped device's lifetime, optionally records its data ops,
/// and reads its layer counters just before it is destroyed.
class ProbeDevice final : public BlockDevice {
 public:
  ProbeDevice(sim::Simulator& sim, std::unique_ptr<BlockDevice> inner,
              std::string device_class, bool record_ops, ContractRun& sink,
              SpanRecorder& spans)
      : sim_(sim),
        inner_(std::move(inner)),
        sink_(sink),
        spans_(spans),
        span_(spans.open("contract.device", device_class)),
        start_s_(now_s()),
        record_ops_(record_ops) {
    record_.device_class = std::move(device_class);
  }
  // Completion callbacks hold `this`.
  ProbeDevice(const ProbeDevice&) = delete;
  ProbeDevice& operator=(const ProbeDevice&) = delete;

  ~ProbeDevice() override {
    if (const auto* e = dynamic_cast<const essd::EssdDevice*>(inner_.get())) {
      sink_.counters.add_essd(*e);
      const ebs::StorageCluster& c = e->cluster();
      sink_.counters.add_cluster(c.stats(), c.cleaner().stats(),
                                 c.busy_stats());
    } else if (const auto* s =
                   dynamic_cast<const ssd::SsdDevice*>(inner_.get())) {
      sink_.counters.add_ssd(*s);
    }
    if (record_ops_ && mix(ops_) > mix(sink_.essd1_ops)) {
      sink_.essd1_ops = std::move(ops_);
    }
    record_.sim_events = sim_.events_processed();
    record_.lifetime_s = now_s() - start_s_;
    sink_.devices.push_back(record_);
    spans_.close(span_);
  }

  const DeviceInfo& info() const override { return inner_->info(); }

  void submit(const IoRequest& req, CompletionFn done) override {
    ++record_.submits;
    if (record_ops_ && is_data_op(req.op)) {
      ops_.push_back({sim_.now(), req.op, req.offset, req.bytes});
    }
    inner_->submit(req, [this, done = std::move(done)](const IoResult& r) {
      ++record_.completions;
      done(r);
    });
  }

 private:
  /// How evenly a stream mixes reads and writes: min(reads, writes).
  static std::size_t mix(const std::vector<RecordedOp>& ops) {
    std::size_t writes = 0;
    for (const RecordedOp& op : ops) writes += op.op == IoOp::kWrite ? 1 : 0;
    return std::min(writes, ops.size() - writes);
  }

  sim::Simulator& sim_;
  std::unique_ptr<BlockDevice> inner_;
  ContractRun& sink_;
  SpanRecorder& spans_;
  int span_;
  double start_s_;
  bool record_ops_;
  DeviceRecord record_;
  std::vector<RecordedOp> ops_;
};

}  // namespace

ContractAudit::ContractAudit(std::uint64_t seed)
    : ssd_(ssd::samsung_970pro_scaled(kSsdCapacity)),
      essd1_(essd::aws_io2_profile(kEssdCapacity)),
      essd2_(essd::alibaba_pl3_profile(kEssdCapacity)),
      // contract_audit's quick mode.
      checker_(contract::CheckerOptions{
          .quick = true, .gc_capacity_multiples = 1.5, .seed = seed}),
      reference_(factory("ssd")),
      target1_(factory("essd1")),
      target2_(factory("essd2")) {}

contract::DeviceFactory ContractAudit::factory(const char* device_class) {
  return [this, device_class](sim::Simulator& sim) {
    UC_ASSERT(sink_ != nullptr, "audit device created outside run()");
    const std::string cls = device_class;
    std::unique_ptr<BlockDevice> inner =
        cls == "ssd" ? std::unique_ptr<BlockDevice>(
                           std::make_unique<ssd::SsdDevice>(sim, ssd_))
                     : std::make_unique<essd::EssdDevice>(
                           sim, cls == "essd1" ? essd1_ : essd2_);
    return std::unique_ptr<BlockDevice>(
        new ProbeDevice(sim, std::move(inner), cls,
                        record_ops_ && cls == "essd1", *sink_, *spans_));
  };
}

ContractRun ContractAudit::run(SpanRecorder& spans, bool record_ops) {
  ContractRun out;
  sink_ = &out;
  spans_ = &spans;
  record_ops_ = record_ops;
  struct Target {
    const char* device_class;
    const contract::DeviceFactory* factory;
    const char* name;
    double budget_gbs;
  };
  for (const Target& t :
       {Target{"essd1", &target1_, "ESSD-1 (AWS io2 sim)", 3.0},
        Target{"essd2", &target2_, "ESSD-2 (Alibaba PL3 sim)", 1.1}}) {
    ScopedSpan span(spans, std::string("contract.check.") + t.device_class);
    out.contracts.push_back(checker_.check(
        *t.factory, t.name, reference_, "Samsung 970 Pro (sim)", t.budget_gbs));
  }
  sink_ = nullptr;
  spans_ = nullptr;
  return out;
}

std::vector<std::string> check_contract(const ContractRun& run) {
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < run.devices.size(); ++i) {
    const DeviceRecord& d = run.devices[i];
    if (d.completions != d.submits) {
      errors.push_back(strfmt("%s device %zu completed %" PRIu64
                              " of %" PRIu64 " submitted ops",
                              d.device_class.c_str(), i, d.completions,
                              d.submits));
    }
  }
  if (run.devices.empty()) errors.push_back("the audit created no devices");
  if (run.contracts.size() != 2) errors.push_back("expected two contracts");
  return errors;
}

namespace {

void mix_study(Fnv1a& h, const contract::LatencyStudy& study) {
  for (const auto& m : study.matrices) {
    for (const auto& c : m.cells) {
      h.mix(static_cast<std::uint64_t>(c.io_bytes))
          .mix(static_cast<std::uint64_t>(c.queue_depth))
          .mix(c.avg_ns)
          .mix(c.p99_ns)
          .mix(c.p999_ns)
          .mix(c.iops)
          .mix(c.gb_per_s);
    }
  }
}

void mix_gc(Fnv1a& h, const contract::GcRunResult& gc) {
  for (const auto& p : gc.timeline) {
    h.mix(p.time_s).mix(p.gb_per_s).mix(p.kiops).mix(p.bytes);
  }
  h.mix(gc.device_capacity_bytes)
      .mix(gc.total_written_bytes)
      .mix(static_cast<std::uint64_t>(gc.wall_time));
}

void mix_doubles(Fnv1a& h, const std::vector<double>& xs) {
  for (const double x : xs) h.mix(x);
}

}  // namespace

std::uint64_t contract_digest(const ContractRun& run) {
  Fnv1a h;
  for (const auto& c : run.contracts) {
    mix_study(h, c.target_latency);
    mix_study(h, c.reference_latency);
    mix_gc(h, c.target_gc);
    mix_gc(h, c.reference_gc);
    mix_doubles(h, c.target_gain.random_gbs);
    mix_doubles(h, c.target_gain.sequential_gbs);
    mix_doubles(h, c.reference_gain.random_gbs);
    mix_doubles(h, c.reference_gain.sequential_gbs);
    mix_doubles(h, c.target_budget.total_gbs);
    mix_doubles(h, c.target_budget.write_gbs);
    mix_doubles(h, c.reference_budget.total_gbs);
    mix_doubles(h, c.reference_budget.write_gbs);
    for (const auto& v : c.observations) {
      h.mix(static_cast<std::uint64_t>(v.number))
          .mix(static_cast<std::uint64_t>(v.holds));
    }
  }
  return h.value();
}

int observations_held(const ContractRun& run) {
  int held = 0;
  for (const auto& c : run.contracts) {
    for (const auto& v : c.observations) held += v.holds ? 1 : 0;
  }
  return held;
}

// ---------------------------------------------------------------------------
// Digest pins
// ---------------------------------------------------------------------------

std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  Fnv1a h;
  for (const std::uint64_t d : digests) h.mix(d);
  return h.mix(static_cast<std::uint64_t>(digests.size())).value();
}

std::uint64_t pinned_digest(Workload w) {
  // Taken from the parent commit at kPinnedSeed, full scale.  A perf-only
  // change must reproduce them bit for bit; a change to the simulated
  // model re-pins them in its own benchmark change, stating the reason.
  switch (w) {
    case Workload::kFleetStatic:
      return 0xaccf11cfcbe69963ull;
    case Workload::kFleetRebalanceRead:
      return 0x22cbecdaf9095d07ull;
    case Workload::kContractAudit:
      return 0x633b44dfb80edb2aull;
  }
  return 0;
}

}  // namespace perfbench
