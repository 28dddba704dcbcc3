#include "ladder.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <memory>

#include "common/histogram.h"
#include "common/strfmt.h"
#include "common/units.h"
#include "ebs/cluster.h"
#include "essd/essd_device.h"
#include "placement/placement.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workload/trace.h"

namespace perfbench {

using namespace uc;
using namespace uc::units;

namespace {

constexpr int kRepetitions = 3;
constexpr std::uint32_t kFillBytes = 128 * 1024;

/// Median over `kRepetitions` calls of `body`, which returns
/// {host seconds, work units}; the result is nanoseconds per unit.
template <typename Body>
double ns_per_unit(SpanRecorder& spans, const char* rung, Body&& body) {
  ScopedSpan span(spans, rung, "ladder");
  std::vector<double> per_unit;
  for (int r = 0; r < kRepetitions; ++r) {
    const auto [seconds, units] = body();
    per_unit.push_back(units == 0 ? 0.0
                                  : seconds * 1e9 / static_cast<double>(units));
  }
  return median(per_unit);
}

/// Completion bookkeeping shared by the storage rungs.
struct Tally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  void check(const char* rung, std::vector<std::string>& errors) const {
    if (issued != completed) {
      errors.push_back(strfmt("%s: %" PRIu64 " of %" PRIu64 " ops completed",
                              rung, completed, issued));
    }
  }
};

/// Calls `fn(offset, bytes)` for each piece of [offset, offset + bytes)
/// that lies within one chunk.
template <typename Fn>
void for_each_fragment(ByteOffset offset, std::uint32_t bytes,
                       std::uint64_t chunk, Fn&& fn) {
  while (bytes > 0) {
    const std::uint64_t room = chunk - offset % chunk;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bytes, room));
    fn(offset, len);
    offset += len;
    bytes -= len;
  }
}

// --- sim ---------------------------------------------------------------

std::pair<double, std::uint64_t> kernel_once(std::uint64_t events) {
  // 1024 self-rescheduling chains; every callback carries a 32-byte capture.
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* remaining;
    std::uint64_t salt;
    std::uint64_t step;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      sim->schedule_after(1 + (salt + step) % 7, Chain{sim, remaining, salt,
                                                       step + 1});
    }
  };
  static_assert(sizeof(Chain) == 32, "kernel rung captures 32 bytes");
  sim::Simulator sim;
  std::uint64_t remaining = events;
  const double t0 = now_s();
  for (std::uint64_t c = 0; c < 1024; ++c) {
    sim.schedule_at(static_cast<SimTime>(c % 7), Chain{&sim, &remaining, c, 0});
  }
  sim.run();
  return {now_s() - t0, sim.events_processed()};
}

std::pair<double, std::uint64_t> barrier_once() {
  constexpr std::size_t kShards = 64;
  constexpr int kEpochs = 2000;
  sim::ParallelExecutor exec(2);
  std::array<std::uint64_t, kShards> touched{};
  const double t0 = now_s();
  for (int e = 0; e < kEpochs; ++e) {
    exec.run_epoch(kShards, [&touched](std::size_t s) { ++touched[s]; });
  }
  return {now_s() - t0, kEpochs};
}

// --- workload / common -------------------------------------------------

std::pair<double, std::uint64_t> trace_gen_once(const LadderInput& in) {
  std::uint64_t events = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < in.all_generators.size(); ++i) {
    DeviceInfo info;
    info.capacity_bytes = in.all_capacities[i];
    events += wl::generate_trace(in.all_generators[i], info).size();
  }
  return {now_s() - t0, events};
}

std::pair<double, std::uint64_t> histogram_once(
    const std::vector<SimTime>& samples) {
  LatencyHistogram h;
  const double t0 = now_s();
  for (const SimTime s : samples) h.record(s);
  const double dt = now_s() - t0;
  UC_ASSERT(h.count() == samples.size(), "histogram lost samples");
  return {dt, samples.size()};
}

// --- storage rungs -------------------------------------------------------

essd::EssdConfig shared_base(const LadderInput& in) {
  essd::EssdConfig base = in.base;
  base.cluster.sched.weights.clear();
  for (const auto& v : in.volumes) base.cluster.sched.weights.push_back(v.weight);
  return base;
}

/// One timed replay phase of the ebs rung.
struct EbsPhase {
  double seconds = 0.0;
  std::uint64_t pages = 0;
};

/// Replays the input's ops through a StorageCluster at their arrival
/// times, after the fill (untimed).  `phases` lists the op kinds each timed
/// phase replays: {kWrite} then {kRead} for the write and read rungs, or
/// {kWrite, kRead} once for the mixed, arrival-ordered stream the device
/// rungs submit.
std::vector<EbsPhase> ebs_once(const LadderInput& in,
                               const std::vector<std::vector<IoOp>>& phases,
                               std::vector<std::string>& errors) {
  const essd::EssdConfig base = shared_base(in);
  sim::Simulator sim;
  ebs::StorageCluster cluster(sim, base.cluster);
  std::vector<ebs::VolumeId> vol;
  for (const auto& v : in.volumes) vol.push_back(cluster.attach_volume(v.capacity_bytes));
  std::vector<WriteStamp> stamp(vol.size(), 1);
  const std::uint64_t chunk = cluster.chunk_bytes();
  Tally fill, writes, reads;

  auto write = [&](std::uint32_t v, ByteOffset off, std::uint32_t bytes,
                   Tally& tally) {
    for_each_fragment(off, bytes, chunk, [&](ByteOffset o, std::uint32_t len) {
      ++tally.issued;
      cluster.write(vol[v], o, len, stamp[v], [&tally] { ++tally.completed; });
      stamp[v] += len / kLogicalPageBytes;
    });
  };
  auto issue = [&](const ReplayOp& op) {
    if (op.ev.op == IoOp::kWrite) {
      write(op.vol, op.ev.offset, op.ev.bytes, writes);
      return;
    }
    for_each_fragment(op.ev.offset, op.ev.bytes, chunk,
                      [&](ByteOffset o, std::uint32_t len) {
                        ++reads.issued;
                        cluster.read(vol[op.vol], o, len,
                                     [&reads] { ++reads.completed; });
                      });
  };
  for (std::uint32_t v = 0; in.fill && v < vol.size(); ++v) {
    for (ByteOffset off = 0; off < in.volumes[v].capacity_bytes;
         off += kFillBytes) {
      write(v, off, kFillBytes, fill);
    }
  }
  sim.run();

  std::vector<EbsPhase> out;
  for (const std::vector<IoOp>& kinds : phases) {
    EbsPhase phase;
    const SimTime start = sim.now();
    const double t0 = now_s();
    for (const ReplayOp& op : in.ops) {
      if (std::find(kinds.begin(), kinds.end(), op.ev.op) == kinds.end()) {
        continue;
      }
      phase.pages += op.ev.bytes / kLogicalPageBytes;
      const ReplayOp* p = &op;
      sim.schedule_at(start + op.ev.arrival, [&issue, p] { issue(*p); });
    }
    sim.run();
    phase.seconds = now_s() - t0;
    out.push_back(phase);
  }

  fill.check("ebs fill", errors);
  writes.check("ebs rung writes", errors);
  reads.check("ebs rung reads", errors);
  return out;
}

/// Submits the input's ops to `device(vol)` at their arrival times, after
/// the fill; returns the host seconds of the replay.  With `latencies`, the
/// replayed ops' simulated latencies are appended to it.
template <typename DeviceOf>
double replay_once(sim::Simulator& sim, const LadderInput& in,
                   DeviceOf&& device,
                   const std::vector<ByteOffset>& base_offset,
                   const char* rung, std::vector<std::string>& errors,
                   std::vector<SimTime>* latencies = nullptr) {
  Tally fill, replay;
  IoId next_id = 1;
  for (std::uint32_t v = 0; in.fill && v < in.volumes.size(); ++v) {
    for (ByteOffset off = 0; off < in.volumes[v].capacity_bytes;
         off += kFillBytes) {
      ++fill.issued;
      device(v).submit({next_id++, IoOp::kWrite, base_offset[v] + off,
                        kFillBytes},
                       [&fill](const IoResult&) { ++fill.completed; });
    }
  }
  sim.run();

  struct Sink {
    Tally* tally;
    std::vector<SimTime>* latencies;
    void operator()(const IoResult& r) const {
      ++tally->completed;
      if (latencies != nullptr) latencies->push_back(r.latency());
    }
  };
  const Sink sink{&replay, latencies};
  const SimTime start = sim.now();
  const double t0 = now_s();
  for (const ReplayOp& op : in.ops) {
    const IoRequest req{next_id++, op.ev.op, base_offset[op.vol] + op.ev.offset,
                        op.ev.bytes};
    BlockDevice* dev = &device(op.vol);
    sim.schedule_at(start + op.ev.arrival, [dev, req, s = &sink] {
      ++s->tally->issued;
      dev->submit(req, *s);
    });
  }
  sim.run();
  const double dt = now_s() - t0;
  fill.check(rung, errors);
  replay.check(rung, errors);
  return dt;
}

double essd_once(const LadderInput& in, LayerCounters* counters,
                 std::vector<SimTime>* latencies,
                 std::vector<std::string>& errors) {
  const essd::EssdConfig base = shared_base(in);
  sim::Simulator sim;
  ebs::StorageCluster cluster(sim, base.cluster);
  std::vector<std::unique_ptr<essd::EssdDevice>> devices;
  for (std::size_t i = 0; i < in.volumes.size(); ++i) {
    const ebs::VolumeId vol = cluster.attach_volume(in.volumes[i].capacity_bytes);
    devices.push_back(std::make_unique<essd::EssdDevice>(
        sim, tenant::SharedClusterHost::tenant_config(base, in.volumes[i], i),
        cluster, vol));
  }
  const std::vector<ByteOffset> zero(in.volumes.size(), 0);
  const double dt = replay_once(
      sim, in, [&](std::uint32_t v) -> BlockDevice& { return *devices[v]; },
      zero, "essd rung", errors, latencies);
  if (counters != nullptr) {
    for (const auto& d : devices) counters->add_essd(*d);
  }
  return dt;
}

double ssd_once(const LadderInput& in, LayerCounters* counters,
                std::vector<std::string>& errors) {
  // The volumes sit side by side on one local SSD.
  std::vector<ByteOffset> base_offset;
  std::uint64_t total = 0;
  for (const auto& v : in.volumes) {
    base_offset.push_back(total);
    total += v.capacity_bytes;
  }
  const std::uint64_t capacity = std::max<std::uint64_t>(
      4 * kGiB, (total + kGiB - 1) / kGiB * kGiB);
  sim::Simulator sim;
  ssd::SsdDevice device(sim, ssd::samsung_970pro_scaled(capacity));
  const double dt = replay_once(
      sim, in, [&](std::uint32_t) -> BlockDevice& { return device; },
      base_offset, "ssd rung", errors);
  if (counters != nullptr) counters->add_ssd(device);
  return dt;
}

/// An open-loop generator with the recorded stream's rate, write share and
/// size mix over the region it touched: what the trace-generation rung
/// times for a workload that replays no generated traces.
wl::TraceGenConfig generator_like(const std::vector<RecordedOp>& ops) {
  wl::TraceGenConfig gen;
  gen.diurnal_amplitude = 0.0;
  gen.bursts_per_s = 0.0;
  gen.seed = 1;
  if (ops.empty()) return gen;
  std::uint64_t writes = 0;
  std::uint64_t region = 0;
  std::vector<std::pair<std::uint32_t, double>> sizes;
  for (const RecordedOp& op : ops) {
    writes += op.op == IoOp::kWrite ? 1 : 0;
    region = std::max<std::uint64_t>(region, op.offset + op.bytes);
    auto it = std::find_if(sizes.begin(), sizes.end(),
                           [&op](const auto& s) { return s.first == op.bytes; });
    if (it == sizes.end()) {
      sizes.push_back({op.bytes, 1.0});
    } else {
      it->second += 1.0;
    }
  }
  gen.duration = std::max<SimTime>(ops.back().submit, 1);
  gen.base_iops = static_cast<double>(ops.size()) * 1e9 /
                  static_cast<double>(gen.duration);
  gen.write_fraction =
      static_cast<double>(writes) / static_cast<double>(ops.size());
  gen.size_mix = sizes;
  gen.region_bytes = region;
  return gen;
}

}  // namespace

LadderInput fleet_ladder_input(const fleet::GeneratedFleet& fleet,
                               std::uint64_t sim_events,
                               std::uint64_t ops_completed) {
  LadderInput in;
  in.base = fleet.base;
  const std::vector<int> home =
      placement::plan_placement(fleet.placement, fleet.tenants);
  for (std::size_t i = 0; i < fleet.tenants.size(); ++i) {
    const tenant::TenantSpec& t = fleet.tenants[i];
    in.all_generators.push_back(t.load.gen);
    in.all_capacities.push_back(t.capacity_bytes);
    if (home[i] != 0) continue;
    DeviceInfo info;
    info.name = t.name;
    info.capacity_bytes = t.capacity_bytes;
    const auto vol = static_cast<std::uint32_t>(in.volumes.size());
    for (const wl::TraceEvent& ev : wl::generate_trace(t.load.gen, info)) {
      if (is_data_op(ev.op)) in.ops.push_back({vol, ev});
    }
    in.volumes.push_back(t);
  }
  std::stable_sort(in.ops.begin(), in.ops.end(),
                   [](const ReplayOp& a, const ReplayOp& b) {
                     return a.ev.arrival < b.ev.arrival;
                   });
  in.kernel_events = sim_events;
  in.histogram_samples = ops_completed;
  return in;
}

LadderInput contract_ladder_input(const std::vector<RecordedOp>& recorded,
                                  std::uint64_t sim_events,
                                  std::uint64_t ops_completed) {
  // One ESSD-1 volume, as the audit builds it; the recorded stream begins
  // with the audit's own preconditioning, so no fill.
  LadderInput in;
  in.base = essd::aws_io2_profile(8 * kGiB);
  in.fill = false;
  tenant::TenantSpec volume;
  volume.name = "essd1";
  volume.capacity_bytes = in.base.capacity_bytes;
  volume.qos = in.base.qos;
  in.volumes.push_back(volume);
  for (const RecordedOp& op : recorded) {
    in.ops.push_back({0, {op.submit, op.op, op.offset, op.bytes}});
  }
  in.all_generators.push_back(generator_like(recorded));
  in.all_capacities.push_back(volume.capacity_bytes);
  in.kernel_events = sim_events;
  in.histogram_samples = ops_completed;
  return in;
}

LadderResult run_ladder(const LadderInput& in, SpanRecorder& spans) {
  LadderResult out;
  out.replayed_ops = in.ops.size();
  if (in.ops.empty()) {
    out.errors.push_back("ladder has no ops to replay");
    return out;
  }
  out.kernel_ns_per_event = ns_per_unit(spans, "ladder.sim.kernel", [&] {
    return kernel_once(std::max<std::uint64_t>(in.kernel_events, 1));
  });
  out.epoch_barrier_us =
      ns_per_unit(spans, "ladder.sim.epoch_barrier", barrier_once) / 1e3;
  out.trace_gen_ns_per_op = ns_per_unit(
      spans, "ladder.workload.trace_gen", [&] { return trace_gen_once(in); });

  const auto ns_per = [](double seconds, std::uint64_t units) {
    return seconds * 1e9 / static_cast<double>(std::max<std::uint64_t>(units, 1));
  };
  {
    ScopedSpan span(spans, "ladder.ebs", "ladder");
    std::vector<double> w, r, mixed;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto split =
          ebs_once(in, {{IoOp::kWrite}, {IoOp::kRead}}, out.errors);
      w.push_back(ns_per(split[0].seconds, split[0].pages));
      r.push_back(ns_per(split[1].seconds, split[1].pages));
    }
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto all = ebs_once(in, {{IoOp::kWrite, IoOp::kRead}}, out.errors);
      mixed.push_back(ns_per(all[0].seconds, in.ops.size()));
    }
    out.ebs_write_ns_per_page = median(w);
    out.ebs_read_ns_per_page = median(r);
    out.ebs_replay_ns_per_op = median(mixed);
  }
  const auto per_op = [&in](double seconds) {
    return std::pair<double, std::uint64_t>{seconds, in.ops.size()};
  };
  // The first repetition's devices report the QoS counters and the
  // latencies the histogram rung records.
  std::vector<SimTime> latencies;
  int rep = 0;
  out.essd_submit_ns_per_op = ns_per_unit(spans, "ladder.essd.submit", [&] {
    const bool first = rep++ == 0;
    return per_op(essd_once(in, first ? &out.counters : nullptr,
                            first ? &latencies : nullptr, out.errors));
  });
  rep = 0;
  out.ssd_submit_ns_per_op = ns_per_unit(spans, "ladder.ssd.submit", [&] {
    return per_op(ssd_once(in, rep++ == 0 ? &out.counters : nullptr,
                           out.errors));
  });

  // As many samples as the workload records, cycling the essd rung's
  // latencies.
  std::vector<SimTime> samples(std::max<std::uint64_t>(in.histogram_samples, 1));
  for (std::size_t i = 0; i < samples.size() && !latencies.empty(); ++i) {
    samples[i] = latencies[i % latencies.size()];
  }
  out.histogram_record_ns = ns_per_unit(
      spans, "ladder.common.histogram", [&] { return histogram_once(samples); });
  return out;
}

}  // namespace perfbench
