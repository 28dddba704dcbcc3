// The repository benchmark: the `uc_perfbench` binary.
//
//   uc_perfbench --workload <fleet-static|fleet-rebalance-read|contract-audit>
//                --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//                [--clusters <c> --tenants <t>]
//   uc_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics: the workload's set-up is
// repeated and its median reported as setup_s, then the workload's one
// timed call is repeated for --seconds and medians are reported.
// --trace 1 runs the workload untraced (warm-up), with spans on, and
// untraced again, runs the layer ladder, and reports the per-layer metrics
// plus the tracing overhead (traced minus the second untraced call).  Every
// call is checked for correctness; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strfmt.h"
#include "fleet/fleet.h"
#include "ladder.h"
#include "sched/sched.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace uc;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void count(std::string name, std::uint64_t value) {
    add(std::move(name), static_cast<double>(value), "count");
  }
  /// Table for people, then the JSON line for the harness.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-44s %18.9g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// One workload call and what the metrics read from it
// ---------------------------------------------------------------------------

struct CallResult {
  double wall_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  double worst_p999_us = 0.0;
  double mean_p999_us = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
  LayerCounters counters;

  // fleet only
  double jain_clusters = 0.0;
  placement::SliceExecStats sliced;
  int migrations = 0;
  std::uint64_t migration_bytes = 0;

  // contract only
  int observations_held = 0;
  std::uint64_t cells = 0;
  double ssd_s = 0.0, essd1_s = 0.0, essd2_s = 0.0;
};

class Runner {
 public:
  Runner() = default;
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;
  virtual ~Runner() = default;
  /// Builds the workload's inputs (everything before the timed call).
  virtual void setup() = 0;
  /// The timed call.
  virtual CallResult call(SpanRecorder& spans) = 0;
  virtual LadderInput ladder_input(const CallResult& r) const = 0;
  virtual const char* setup_span() const = 0;
  virtual const char* run_span() const = 0;
};

class FleetRunner final : public Runner {
 public:
  FleetRunner(Workload w, std::uint64_t seed, FleetScale scale)
      : w_(w), spec_(fleet_spec(w, seed, scale)) {}

  void setup() override { fleet_ = fleet::generate_fleet(spec_); }

  CallResult call(SpanRecorder& spans) override {
    CallResult r;
    const double t0 = now_s();
    fleet::FleetReport rep;
    {
      ScopedSpan span(spans, run_span());
      rep = fleet::run_fleet(fleet_, {.threads = fleet_threads(w_)});
    }
    r.wall_s = now_s() - t0;

    const FleetOutcome o = fleet_outcome(fleet_, rep);
    r.errors = check_fleet(o);
    r.digest = fold_digests(o.digests);
    for (std::size_t i = 0; i < o.trace_events.size(); ++i) {
      r.ops_issued += o.trace_events[i];
      r.ops_completed += o.completed_ops[i];
    }
    r.sim_events = rep.sim_events;
    r.worst_p999_us = rep.worst_p999_us;
    r.mean_p999_us = rep.mean_p999_us;
    r.jain_clusters = rep.jain_clusters;
    r.sliced = rep.raw.sliced;
    r.migrations = rep.migrations;
    r.migration_bytes = rep.migration_bytes_copied;
    r.counters = fleet_counters(rep);
    return r;
  }

  LadderInput ladder_input(const CallResult& r) const override {
    return fleet_ladder_input(fleet_, r.sim_events, r.ops_completed);
  }
  const char* setup_span() const override { return "fleet.generate"; }
  const char* run_span() const override { return "fleet.run"; }

 private:
  Workload w_;
  fleet::FleetSpec spec_;
  fleet::GeneratedFleet fleet_;
};

class ContractRunner final : public Runner {
 public:
  explicit ContractRunner(std::uint64_t seed) : seed_(seed) {}

  void setup() override { audit_ = std::make_unique<ContractAudit>(seed_); }

  CallResult call(SpanRecorder& spans) override {
    CallResult r;
    const double t0 = now_s();
    ContractRun run;
    {
      ScopedSpan span(spans, run_span());
      // The traced call also records the op stream the ladder replays.
      run = audit_->run(spans, spans.enabled());
    }
    r.wall_s = now_s() - t0;
    recorded_ = std::move(run.essd1_ops);

    r.errors = check_contract(run);
    r.digest = contract_digest(run);
    r.observations_held = observations_held(run);
    r.cells = run.devices.size();
    for (const DeviceRecord& d : run.devices) {
      r.sim_events += d.sim_events;
      r.ops_issued += d.submits;
      r.ops_completed += d.completions;
      (d.device_class == "ssd"     ? r.ssd_s
       : d.device_class == "essd1" ? r.essd1_s
                                   : r.essd2_s) += d.lifetime_s;
    }
    // The audited devices' tail: p99.9 over every latency cell of both
    // ESSD targets.
    double sum = 0.0;
    std::size_t cells = 0;
    for (const auto& c : run.contracts) {
      for (const auto& m : c.target_latency.matrices) {
        for (const auto& cell : m.cells) {
          r.worst_p999_us = std::max(r.worst_p999_us, cell.p999_ns / 1e3);
          sum += cell.p999_ns / 1e3;
          ++cells;
        }
      }
    }
    r.mean_p999_us = cells == 0 ? 0.0 : sum / static_cast<double>(cells);
    r.counters = std::move(run.counters);
    return r;
  }

  LadderInput ladder_input(const CallResult& r) const override {
    return contract_ladder_input(recorded_, r.sim_events, r.ops_completed);
  }
  const char* setup_span() const override { return "contract.setup"; }
  const char* run_span() const override { return "contract.run"; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ContractAudit> audit_;
  std::vector<RecordedOp> recorded_;  ///< of the last traced call
};

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kFleetStatic;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  FleetScale scale;
};

/// Accumulates correctness across every call of a run.
struct Verdict {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;  ///< of the run's first call
  /// Repeated calls of the 2-thread rebalancing fleet whose digest differed
  /// from the first call's: reported, not failed (see below).
  std::uint64_t digest_mismatches = 0;

  void add(const Args& a, const CallResult& r) {
    attempted += r.ops_issued;
    failed += r.ops_issued - std::min(r.ops_issued, r.ops_completed);
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (digest) {
      // Repeated calls of one input must agree.  The 2-thread rebalancing
      // fleet is not run-to-run deterministic on some inputs (see
      // perfbench/README.md, "Known defect"): there a mismatch is printed
      // and counted instead of failing the run.
      if (*digest == r.digest) return;
      if (fleet_threads(a.workload) == 1) {
        errors.push_back("a repeated call produced a different digest");
        return;
      }
      ++digest_mismatches;
      std::fprintf(stderr,
                   "nondeterministic: call digest %016" PRIx64
                   " != first call's %016" PRIx64
                   " (known defect of the 2-thread rebalancing fleet)\n",
                   r.digest, *digest);
      return;
    }
    digest = r.digest;
    const bool pinned = a.seed == kPinnedSeed &&
                        (!is_fleet(a.workload) || a.scale.full());
    if (pinned && r.digest != pinned_digest(a.workload)) {
      errors.push_back(strfmt("digest %016" PRIx64 " != pinned %016" PRIx64,
                              r.digest, pinned_digest(a.workload)));
    }
  }
};

std::unique_ptr<Runner> make_runner(const Args& a) {
  if (is_fleet(a.workload)) {
    return std::make_unique<FleetRunner>(a.workload, a.seed, a.scale);
  }
  return std::make_unique<ContractRunner>(a.seed);
}

/// --trace 0: end-to-end metrics.
void measure_end_to_end(const Args& a, Report& out, Verdict& v) {
  auto runner = make_runner(a);
  SpanRecorder off(false);

  // Set-up is cheap next to the call; repeat it for a steady median.  Each
  // sample times a batch of set-ups that lasts at least kMinBatchS, so that
  // the two clock reads do not weigh in (the audit's set-up takes well
  // under a microsecond).
  constexpr double kMinBatchS = 1e-4;
  constexpr std::size_t kMinSamples = 31;
  constexpr double kSetupBudgetS = 0.5;
  const auto time_batch = [&runner](int batch) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) runner->setup();
    return (now_s() - t0) / batch;
  };
  runner->setup();  // warm: the first set-up pays for cold caches
  int batch = 1;
  while (time_batch(batch) * batch < kMinBatchS && batch < (1 << 20)) {
    batch *= 2;
  }
  std::vector<double> setup_s;
  const double setup_start = now_s();
  while (setup_s.size() < kMinSamples ||
         now_s() - setup_start < kSetupBudgetS) {
    setup_s.push_back(time_batch(batch));
  }

  // Repeat the call while another one fits in the budget (at least three).
  std::vector<double> wall_s, events_per_s;
  CallResult last;
  const double start = now_s();
  while (wall_s.size() < 3 ||
         now_s() - start + median(wall_s) <= a.seconds) {
    last = runner->call(off);
    v.add(a, last);
    wall_s.push_back(last.wall_s);
    events_per_s.push_back(ratio(static_cast<double>(last.sim_events),
                                 last.wall_s));
  }
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %zu set-up samples of %d; digest %016"
               PRIx64 ", %zu calls:",
               workload_name(a.workload), a.seed, setup_s.size(), batch,
               last.digest, wall_s.size());
  for (const double w : wall_s) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr, " s\n");

  out.add("wall_s", median(wall_s), "s");
  out.add("events_per_s", median(events_per_s), "1/s");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.add("sim_mean_p999_us", last.mean_p999_us, "sim_us");
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// --trace 1: per-layer metrics.
void measure_layers(const Args& a, Report& out, Verdict& v) {
  // An untraced call warms caches and the allocator; the same call after
  // the traced one is the reference for the tracing overhead.
  auto untraced = make_runner(a);
  SpanRecorder off(false);
  untraced->setup();
  v.add(a, untraced->call(off));

  SpanRecorder spans(true);
  auto runner = make_runner(a);
  CallResult r;
  LadderResult ladder;
  {
    ScopedSpan root(spans, std::string("workload.") + workload_name(a.workload));
    {
      ScopedSpan span(spans, runner->setup_span());
      runner->setup();
    }
    r = runner->call(spans);
    v.add(a, r);
    ladder = run_ladder(runner->ladder_input(r), spans);
  }
  const CallResult reference = untraced->call(off);
  v.add(a, reference);
  v.errors.insert(v.errors.end(), ladder.errors.begin(), ladder.errors.end());
  if (!a.spans_path.empty() && !spans.write(a.spans_path)) {
    v.errors.push_back("cannot write spans to " + a.spans_path);
  }

  const LayerCounters& c = r.counters;
  // The fleet has no local SSD and keeps its devices internal, so the
  // ladder's rung devices report the QoS gate and FTL counters there.
  const LayerCounters& dev = is_fleet(a.workload) ? ladder.counters : c;

  out.count("sim.events", r.sim_events);
  out.add("sim.kernel_ns_per_event", ladder.kernel_ns_per_event, "ns");
  out.add("sim.epoch_barrier_us", ladder.epoch_barrier_us, "us");

  out.count("placement.slices", r.sliced.slices);
  out.count("placement.fusions", r.sliced.fusions);
  out.count("placement.max_group_clusters",
            is_fleet(a.workload)
                ? static_cast<std::uint64_t>(r.sliced.max_group_clusters)
                : 0);
  out.count("placement.migrations", static_cast<std::uint64_t>(r.migrations));
  out.add("placement.migration_mib",
          static_cast<double>(r.migration_bytes) / (1 << 20), "MiB");
  out.count("placement.digest_mismatches", v.digest_mismatches);

  out.count("workload.ops_issued", r.ops_issued);
  out.count("workload.ops_completed", r.ops_completed);
  out.add("workload.trace_gen_ns_per_op", ladder.trace_gen_ns_per_op, "ns");
  out.add("ops_failed_ratio",
          ratio(static_cast<double>(r.ops_issued - std::min(r.ops_issued,
                                                            r.ops_completed)),
                static_cast<double>(r.ops_issued)),
          "ratio");

  out.count("ebs.written_pages", c.cluster.written_pages);
  out.count("ebs.read_pages", c.cluster.read_pages);
  out.count("ebs.media_read_pages", c.cluster.media_read_pages);
  out.count("ebs.readahead_fetches", c.cluster.readahead_fetches);
  out.add("ebs.cache_hit_ratio",
          ratio(static_cast<double>(c.cluster.cache_hit_pages),
                static_cast<double>(c.cluster.read_pages)),
          "ratio");
  out.count("ebs.stalled_writes", c.cluster.stalled_writes);
  out.add("ebs.append_stall_ms", ms(static_cast<std::uint64_t>(
                                     c.cluster.append_stall_ns)),
          "sim_ms");
  out.count("ebs.cleaner.segments_cleaned", c.segments_cleaned);
  out.count("ebs.cleaner.pages_relocated", c.pages_relocated);
  out.add("ebs.cleaner.relocated_per_written_page",
          ratio(static_cast<double>(c.pages_relocated),
                static_cast<double>(c.cluster.written_pages)),
          "ratio");
  const char* busy_names[] = {"fg_read", "fg_write", "cleaner_gc", "prefetch",
                              "migration"};
  static_assert(sched::kIoClassCount == 5, "one busy metric per IoClass");
  for (int k = 0; k < sched::kIoClassCount; ++k) {
    out.add(std::string("ebs.busy_ms.") + busy_names[k],
            ms(static_cast<std::uint64_t>(
                c.busy.class_busy_ns[static_cast<std::size_t>(k)])),
            "sim_ms");
  }
  out.add("ebs.stall_ms", ms(static_cast<std::uint64_t>(c.busy.stall_ns)),
          "sim_ms");
  out.add("ebs.write_ns_per_page", ladder.ebs_write_ns_per_page, "ns");
  out.add("ebs.read_ns_per_page", ladder.ebs_read_ns_per_page, "ns");
  out.add("ebs.replay_ns_per_op", ladder.ebs_replay_ns_per_op, "ns");

  out.add("essd.submit_ns_per_op", ladder.essd_submit_ns_per_op, "ns");
  out.add("essd.self_ns_per_op",
          ladder.essd_submit_ns_per_op - ladder.ebs_replay_ns_per_op, "ns");
  out.count("essd.qos_throttled_ops", dev.qos_throttled);
  out.add("essd.qos_p99_wait_us",
          static_cast<double>(dev.qos_wait.percentile(99.0)) / 1e3, "sim_us");

  out.add("ssd.submit_ns_per_op", ladder.ssd_submit_ns_per_op, "ns");
  out.count("ftl.host_write_pages", dev.ftl_host_write_pages);
  out.count("ftl.flash_read_pages", dev.ftl_flash_read_pages);
  out.count("ftl.gc_relocated_slots", dev.ftl_gc_relocated_slots);
  out.count("ftl.user_programmed_slots", dev.ftl_user_programmed_slots);
  out.add("ftl.write_amplification",
          ratio(static_cast<double>(dev.ftl_user_programmed_slots +
                                    dev.ftl_gc_relocated_slots),
                static_cast<double>(dev.ftl_user_programmed_slots)),
          "ratio");
  out.add("ftl.user_stall_ms", ms(dev.ftl_user_stall_ns), "sim_ms");

  out.add("common.histogram_record_ns", ladder.histogram_record_ns, "ns");
  out.count("ladder.replayed_ops", ladder.replayed_ops);

  out.count("contract.cells", r.cells);
  out.add("contract.ssd_s", r.ssd_s, "s");
  out.add("contract.essd1_s", r.essd1_s, "s");
  out.add("contract.essd2_s", r.essd2_s, "s");
  out.count("contract_observations_held",
            static_cast<std::uint64_t>(r.observations_held));

  out.add("fleet.generate_s", spans.total_s("fleet.generate"), "s");
  out.add("fleet.run_s", spans.total_s("fleet.run"), "s");
  out.add("sim_jain_clusters", r.jain_clusters, "index");
  out.add("sim_worst_p999_us", r.worst_p999_us, "sim_us");

  out.add("bench.trace_overhead_s", r.wall_s - reference.wall_s, "s");
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// A full-scale fleet-rebalance-read seed whose 2-thread result is not
/// reproducible on the parent commit.
constexpr std::uint64_t kNondeterministicSeed = 0xd1b54a32d192ed1aull;

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const FleetScale small{4, 32};

  // Thread-count invariance: the rebalancing fleet's digests at 2 threads
  // equal those at 1 thread.
  for (const std::uint64_t seed : {1ull, 2ull, 7ull}) {
    const auto fleet = fleet::generate_fleet(
        fleet_spec(Workload::kFleetRebalanceRead, seed, small));
    const auto one = fleet::run_fleet(fleet, {.threads = 1});
    const auto two = fleet::run_fleet(fleet, {.threads = 2});
    expect(one.digests == two.digests,
           strfmt("fleet-rebalance-read seed %" PRIu64
                  ": digests at 1 and 2 threads agree",
                  seed));
    expect(check_fleet(fleet_outcome(fleet, two)).empty(),
           strfmt("fleet-rebalance-read seed %" PRIu64 ": check passes", seed));
  }

  // The same at full scale, at the seeds where it held on the parent.
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const auto fleet = fleet::generate_fleet(
        fleet_spec(Workload::kFleetRebalanceRead, seed, FleetScale{}));
    expect(fleet::run_fleet(fleet, {.threads = 1}).digests ==
               fleet::run_fleet(fleet, {.threads = 2}).digests,
           strfmt("fleet-rebalance-read seed %" PRIu64
                  " at full scale: digests at 1 and 2 threads agree",
                  seed));
  }

  // Known defect, tracked rather than asserted: at this full-scale seed
  // the 2-thread rebalancing fleet differs from the 1-thread run, and from
  // one 2-thread run to the next.  The fix belongs in src/placement.
  {
    const auto fleet = fleet::generate_fleet(fleet_spec(
        Workload::kFleetRebalanceRead, kNondeterministicSeed, FleetScale{}));
    const auto one = fleet::run_fleet(fleet, {.threads = 1}).digests;
    bool differs = false;
    for (int rep = 0; rep < 3 && !differs; ++rep) {
      differs = fleet::run_fleet(fleet, {.threads = 2}).digests != one;
    }
    std::printf("%s fleet-rebalance-read seed %#" PRIx64
                " at full scale, 1 vs 2 threads: %s\n",
                differs ? "KNOWN DEFECT" : "ok  ", kNondeterministicSeed,
                differs ? "digests differ (thread-count dependent result)"
                        : "digests agree; the known defect is gone");
  }

  // Negative cases: the checks catch one dropped completion and one
  // altered digest.
  const auto fleet =
      fleet::generate_fleet(fleet_spec(Workload::kFleetStatic, 3, small));
  const FleetOutcome good =
      fleet_outcome(fleet, fleet::run_fleet(fleet, {.threads = 1}));
  expect(check_fleet(good).empty(), "fleet-static check passes");
  FleetOutcome dropped = good;
  for (auto& done : dropped.completed_ops) {
    if (done > 0) {
      --done;
      break;
    }
  }
  expect(!check_fleet(dropped).empty(),
         "fleet check fails when one completion is dropped");
  FleetOutcome over_budget = good;
  over_budget.migrations = 1;
  expect(!check_fleet(over_budget).empty(),
         "fleet check fails on a migration without rebalancing");
  FleetOutcome altered = good;
  altered.digests[0] ^= 1;
  expect(fold_digests(altered.digests) != fold_digests(good.digests),
         "an altered shard digest changes the pinned value");

  ContractRun contract;
  contract.contracts.resize(2);
  contract.devices.push_back({"ssd", 10, 10, 100, 0.0});
  expect(check_contract(contract).empty(), "contract check passes");
  contract.devices.push_back({"essd1", 10, 9, 100, 0.0});
  expect(!check_contract(contract).empty(),
         "contract check fails when one completion is dropped");
  const std::uint64_t digest = contract_digest(contract);
  contract.contracts[0].observations.push_back({1, "x", true, ""});
  expect(contract_digest(contract) != digest,
         "an altered verdict changes the contract digest");

  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: uc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>] "
               "[--clusters <c> --tenants <t>] | --self-test\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage(("unknown workload " + value).c_str());
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--clusters") {
      a.scale.clusters = std::atoi(value.c_str());
    } else if (flag == "--tenants") {
      a.scale.tenants = std::atoi(value.c_str());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds <= 0.0 || a.scale.clusters < 1 || a.scale.tenants < 1) {
    usage("--seconds, --clusters and --tenants want positive values");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test();
  }
  const Args args = parse(argc, argv);
  Report report;
  Verdict verdict;
  if (args.trace) {
    measure_layers(args, report, verdict);
  } else {
    measure_end_to_end(args, report, verdict);
  }
  for (const auto& e : verdict.errors) {
    std::fprintf(stderr, "correctness: %s\n", e.c_str());
  }
  if (verdict.digest_mismatches > 0) {
    std::printf("nondeterministic: %" PRIu64
                " repeated calls differed from the first (known defect, "
                "not failed)\n",
                verdict.digest_mismatches);
  }
  const bool correct = verdict.errors.empty() && verdict.failed == 0;
  report.print(correct, verdict.attempted, verdict.failed);
  return correct ? 0 : 1;
}
