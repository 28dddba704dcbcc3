#pragma once

/// \file simulator.h
/// Discrete-event simulation kernel.
///
/// Every model in the library (flash dies, FTL background jobs, network
/// hops, cluster cleaners, workload runners) advances by scheduling
/// callbacks on one shared `Simulator`.  Events with equal timestamps fire
/// in scheduling order (FIFO), which makes runs deterministic.
///
/// ## Hot-path design
///
/// The kernel keeps two structures, sized so the per-event work touches as
/// little memory as possible:
///
/// - a **chunked slab event pool**: callbacks live in recycled
///   cache-line-sized slots (`InlineCallback`, no heap fallback) inside
///   fixed-size chunks whose addresses never move, with slot metadata
///   (generation, free-list link, cancelled flag) packed into a separate
///   8-byte-per-slot array so bookkeeping never drags callback bytes
///   through the cache.  Stable addresses let `schedule_at` construct the
///   capture directly in its slot and let the fire path invoke it in
///   place — zero relocations per event.  An `EventId` packs
///   `(generation << 32) | slot`; the generation is bumped every time a
///   slot is recycled, so a stale handle — including a cancel-after-fire
///   — is detected in O(1) and ignored.
/// - a **4-ary min-heap of 16-byte keys** `(time, order)`, where `order`
///   packs a monotonically increasing schedule sequence above the slot
///   index.  Sift operations move POD keys, never callbacks, and the
///   sequence makes equal-time events pop in schedule order (FIFO).
///
/// `cancel()` flags the slab slot and destroys its callback immediately —
/// O(1), no auxiliary set, no hash lookup on the pop path.  Cancelled keys
/// are dropped lazily when they surface at the heap top.
///
/// Steady-state cost per event: one heap push + one heap pop over 16-byte
/// keys, and ONE indirect call (`InlineCallback::invoke_and_dispose`).  No
/// heap allocations (asserted by `alloc_profile_test`).

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/inline_callback.h"

namespace uc::sim {

namespace detail {

/// Minimal aligned allocator so the heap's key array starts on a cache
/// line: combined with the padded 4-ary layout below, every sift level
/// then reads exactly one 64-byte line of keys.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  // Spelled out because the non-type `Align` parameter defeats the
  // allocator_traits auto-rebind.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}  // NOLINT
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }
  bool operator==(const AlignedAllocator&) const { return true; }
};

}  // namespace detail

/// Handle for cancelling a scheduled event: `(generation << 32) | slot`.
/// Handles are unique across the life of a simulator (generations recycle
/// slots), but are *not* sequential — FIFO ordering among equal-time events
/// is carried by an internal schedule sequence, not by the handle value.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() { heap_.resize(kHeapRoot); }  // padding below the root
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `f` at absolute time `t` (>= now).  The capture is built
  /// directly inside the event slab (`InlineCallback` rules apply: bounded
  /// size, no heap fallback).
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, Callback>>>
  EventId schedule_at(SimTime t, F&& f) {
    const std::uint32_t s = schedule_slot(t);
    cb_ref(s).emplace(std::forward<F>(f));
    return make_id(meta_[s].gen, s);
  }

  /// Schedules a pre-built callback (one relocation into the slab).
  EventId schedule_at(SimTime t, Callback cb) {
    const std::uint32_t s = schedule_slot(t);
    cb_ref(s) = std::move(cb);
    return make_id(meta_[s].gen, s);
  }

  /// Schedules after `delay` nanoseconds.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event in O(1) (flags the slab slot and releases the
  /// callback's captures).  Cancelling an event that already fired, or
  /// cancelling twice, is a verified no-op: the slot generation no longer
  /// matches the handle.
  void cancel(EventId id) {
    if (id == kInvalidEvent) return;
    const std::uint32_t s = id_slot(id);
    if (s >= slab_size_) return;
    Meta& m = meta_[s];
    // A fired or already-recycled event has a bumped generation; a doubly
    // cancelled one is flagged.  Both are O(1) no-ops.
    if (m.gen != id_gen(id) || (m.link & kCancelledBit) != 0) return;
    m.link |= kCancelledBit;
    cb_ref(s).reset();  // release captured resources now, not at drain time
    --live_events_;
  }

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Runs until the queue is empty or `keep_going()` returns false (checked
  /// before each event).  Used by volume-bounded experiments.
  void run_while(const std::function<bool()>& keep_going);

  /// True when no live (scheduled, not yet fired, not cancelled) events
  /// remain.
  bool idle() const { return live_events_ == 0; }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Timestamp of the earliest live event, or `kNoTime` when the queue is
  /// empty.  Non-const only because cancelled keys surfacing at the heap
  /// top are recycled on the way (observable state is unchanged) — the
  /// peek primitive of lockstep co-simulation, where a driver advances a
  /// *group* of simulators in global time order (a fused shard group of a
  /// rebalancing `placement::ShardedHost`).
  SimTime next_event_time();

  /// Advances the clock to `t` without firing anything; every live event
  /// must already sit at `t` or later.  The lockstep driver calls this on
  /// each group member *before* firing the events at `t`, so a callback
  /// that reaches into a sibling simulator (cross-cluster migration
  /// traffic) finds its clock — and therefore every latency it computes —
  /// already aligned.
  void advance_to(SimTime t);

  /// Test hook: forces the schedule sequence close to its packing limit so
  /// the renormalization path (reached after ~1.1e12 schedules in
  /// production) can be exercised.  Not for use outside tests.
  void set_next_sequence_for_testing(std::uint64_t seq) { next_seq_ = seq; }

 private:
  // `order` layout: [ sequence : 40 bits | slot : 24 bits ].  The sequence
  // occupies the high bits, so comparing `order` compares schedule order;
  // the slot rides along for the O(1) slab lookup on pop.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kSlotBits)) - 1;
  static constexpr std::uint32_t kNilSlot = 0x00ffffffu;  // > any slot index
  static constexpr std::uint32_t kCancelledBit = 0x80000000u;
  // 256 slots (16 KiB of callbacks + 2 KiB of metadata) per chunk: small
  // enough that a mostly-idle model stays cache-resident, large enough to
  // amortize the chunk allocation.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// One cache line per callback: the fire path touches exactly one line of
  /// slab payload per event.
  struct alignas(64) CbSlot {
    Callback cb;
  };
  static_assert(sizeof(CbSlot) == 64, "event slot must be one cache line");

  /// Slot bookkeeping, 8 bytes, kept in a flat array separate from the
  /// callback bytes: pop/cancel read metadata without pulling a 64-byte
  /// callback line into cache.  `link` is the free-list link while the slot
  /// is free (slot indices need 24 bits) and carries the cancelled flag in
  /// its top bit while the slot is live; `alloc_slot` clears it on reuse.
  struct Meta {
    std::uint32_t gen = 1;  ///< bumped on recycle; EventId must match
    std::uint32_t link = kNilSlot;
  };

  /// 16-byte POD heap key; sift operations move these, never callbacks.
  struct Key {
    SimTime time;
    std::uint64_t order;
  };
  static bool key_less(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;  // FIFO among equal-time events
  }

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  Callback& cb_ref(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & kChunkMask].cb;
  }

  /// Allocates a slot and pushes its heap key for time `t`; the caller
  /// fills in the callback.  Core of `schedule_at`, inline because it runs
  /// once per event.
  std::uint32_t schedule_slot(SimTime t) {
    UC_ASSERT(t >= now_, "cannot schedule events in the past");
    if (next_seq_ > kMaxSeq) renormalize_order();
    const std::uint32_t s = alloc_slot();
    heap_push(Key{t, (next_seq_++ << kSlotBits) | s});
    ++live_events_;
    return s;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ == kNilSlot) grow_slab();
    const std::uint32_t s = free_head_;
    Meta& m = meta_[s];
    free_head_ = m.link;
    m.link = 0;  // live: clears any stale cancelled bit
    return s;
  }

  void grow_slab();

  /// Bumps the slot generation (invalidating every outstanding handle) and
  /// returns it to the free list.  The callback must already be disposed.
  void free_slot(std::uint32_t s, Meta& m) {
    if (++m.gen == 0) m.gen = 1;  // skip 0 so EventIds stay nonzero
    m.link = free_head_;
    free_head_ = s;
  }

  // 4-ary heap over `heap_` in a cache-aligned padded layout: the root
  // lives at index kHeapRoot (= 3), so every 4-child group starts at an
  // index divisible by 4 — exactly one 64-byte line of keys per sift level
  // (children of p sit at 4p-8..4p-5; parent of c is (c+8)>>2).  Indices
  // 0..2 are permanent padding, never read.  Push is inline (it runs
  // inside every schedule); pop lives with the fire loop.
  static constexpr std::size_t kHeapRoot = 3;
  bool heap_empty() const { return heap_.size() == kHeapRoot; }
  void heap_push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > kHeapRoot) {
      const std::size_t parent = (i + 8) >> 2;
      if (!key_less(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }
  void heap_pop_min();

  /// Pops heap entries and fires every live event with time <= `bound`
  /// **in place** (chunk addresses are stable, so the callback runs from
  /// its slab slot — one indirect call).  The slot's generation is bumped
  /// before invoking (a self-cancel inside the callback is stale, hence a
  /// no-op) but it rejoins the free list only after the callback returns,
  /// so nested schedules cannot build a new event on top of the executing
  /// one.  Cancelled entries encountered on the way are recycled.  With
  /// `SingleStep` the call returns true after the first fire (the
  /// `run_while` step granularity); otherwise it drains to the bound in
  /// one call.  Shared by `run()`, `run_until()`, and `run_while()` so the
  /// cancelled-skip logic exists exactly once.
  template <bool SingleStep>
  bool fire_events(SimTime bound);

  /// Reassigns pending schedule sequences compactly (preserving order) when
  /// the 40-bit sequence space is exhausted.  O(n log n), amortized over
  /// ~10^12 schedules: effectively free, but keeps the packing safe.
  void renormalize_order();

  std::vector<Key, detail::AlignedAllocator<Key, 64>> heap_;
  /// Chunked callback slab: addresses never move, so callbacks are built
  /// and fired in place.  Indexed via `cb_ref`; bookkeeping in `meta_`.
  std::vector<std::unique_ptr<CbSlot[]>> chunks_;
  std::vector<Meta> meta_;
  std::uint32_t slab_size_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t live_events_ = 0;
  std::uint64_t next_seq_ = 1;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace uc::sim
