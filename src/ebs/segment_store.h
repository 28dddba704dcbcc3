#pragma once

/// \file segment_store.h
/// Log-structured chunk storage: every chunk appends into fixed-size
/// segments drawn from a cluster-wide pool; overwrites leave garbage behind
/// for the background cleaner.
///
/// This is the cloud-side analogue of the SSD's FTL: the provider absorbs
/// overwrite garbage with cluster spare capacity and cleans it off the
/// critical path — which is exactly why "the performance impact of GC
/// appears much later or even disappears" (Observation 2).  When the pool
/// runs dry, appends stall until the cleaner frees segments, and the
/// volume's sustained write rate collapses to the cleaning rate — the
/// ESSD-1 cliff in Figure 3.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace uc::ebs {

/// Cluster-wide free-segment accounting, in *segment groups* (one group =
/// `replication` identical replica segments).  A small reserve is set aside
/// for the cleaner so compaction can always make progress.  A multi-tenant
/// cluster starts with just its shared spare capacity and grows the pool as
/// volumes attach, so every tenant draws from the same free-space budget.
class SegmentPool {
 public:
  SegmentPool(std::uint64_t total_groups, std::uint64_t cleaner_reserve);

  /// Takes one group; `privileged` allocations (the cleaner's) may dig into
  /// the reserve.
  bool try_allocate(bool privileged);
  void release(std::uint64_t groups = 1);

  /// Adds capacity (a newly attached volume's live + open-segment share).
  void grow(std::uint64_t groups);

  std::uint64_t free_groups() const { return free_; }
  std::uint64_t total_groups() const { return total_; }
  double free_ratio() const {
    return static_cast<double>(free_) / static_cast<double>(total_);
  }

  /// Invoked on every release (wakes stalled appends and the cleaner).
  void set_release_callback(std::function<void()> cb) {
    on_release_ = std::move(cb);
  }

 private:
  std::uint64_t total_;
  std::uint64_t free_;
  std::uint64_t reserve_;
  std::function<void()> on_release_;
};

/// Per-chunk replicated append log with page-granular live tracking.
/// Replicas are byte-identical, so the log is modeled once per chunk and
/// the pool accounts in whole groups.
class ChunkLog {
 public:
  static constexpr std::uint32_t kUnwritten = ~0u;

  ChunkLog(std::uint32_t pages_in_chunk, std::uint32_t pages_per_segment);

  /// Appends one page version.  Returns false (and changes nothing) if a
  /// fresh segment was needed and the pool was empty — the caller stalls
  /// the write until the cleaner frees space.
  bool append_page(std::uint32_t page, WriteStamp stamp, SegmentPool& pool);

  bool is_written(std::uint32_t page) const {
    return page_seg_[page] != kUnwritten;
  }
  WriteStamp page_stamp(std::uint32_t page) const {
    return page_stamp_[page];
  }

  /// Trim: drops the page, leaving garbage in its segment.
  void trim_page(std::uint32_t page);

  struct Victim {
    std::uint32_t seq = 0;
    std::uint32_t live_pages = 0;
    std::uint32_t appended_pages = 0;
    double garbage_ratio() const {
      return appended_pages == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(live_pages) /
                             static_cast<double>(appended_pages);
    }
  };

  /// `victim_live_pages()` when the log has no sealed segment.
  static constexpr std::uint32_t kNoVictim = ~0u;

  /// The sealed segment with the highest garbage ratio, lowest seq on ties,
  /// if any.  A read of the cached victim: O(1).
  std::optional<Victim> pick_victim() const {
    if (victim_live_ == kNoVictim) return std::nullopt;
    return Victim{victim_seq_, victim_live_, pages_per_segment_};
  }

  /// Live pages of the cached victim, or `kNoVictim`.  Every sealed segment
  /// is full, so across logs of one segment size fewer live pages means a
  /// higher garbage ratio: this is the cleaner's comparison key.
  std::uint32_t victim_live_pages() const { return victim_live_; }
  std::uint32_t pages_per_segment() const { return pages_per_segment_; }

  /// Relocates the victim's live pages into the open log and frees the
  /// segment back to the pool.  Returns false if relocation needed a fresh
  /// segment and even the privileged reserve was empty.
  bool clean_segment(std::uint32_t seq, SegmentPool& pool,
                     std::uint32_t* live_moved);

  std::uint64_t live_pages() const { return live_pages_; }
  std::uint64_t garbage_pages() const {
    return appended_alive_pages_ - live_pages_;
  }
  std::uint32_t allocated_segments() const { return allocated_segments_; }

  /// Debug probe: recomputes live/appended/allocated accounting from the
  /// page table and per-segment records, and the victim by a full scan, and
  /// asserts the cached values match.  Returns true so tests can write
  /// EXPECT_TRUE(log.check_...).
  bool check_invariants() const;

 private:
  struct Segment {
    std::uint32_t appended = 0;
    std::uint32_t live = 0;
    bool freed = false;
  };

  bool ensure_open_segment(SegmentPool& pool, bool privileged);
  void account_overwrite(std::uint32_t page);
  /// Sealed segment `seq` was sealed or lost a live page: it becomes the
  /// victim if its (live, seq) is now the smallest.
  void offer_victim(std::uint32_t seq);
  /// Recomputes the victim from every sealed segment (after freeing it).
  void rescan_victim();

  std::uint32_t pages_per_segment_;
  std::vector<Segment> segments_;      // indexed by seq; freed slots remain
  std::vector<std::uint32_t> page_seg_;
  std::vector<std::uint32_t> page_stamp_;
  std::int64_t open_seq_ = -1;
  std::uint64_t live_pages_ = 0;
  std::uint64_t appended_alive_pages_ = 0;  ///< appended pages in non-freed segments
  std::uint32_t allocated_segments_ = 0;    ///< currently non-freed
  // Min (live, seq) over sealed (non-open, non-freed) segments.
  std::uint32_t victim_seq_ = 0;
  std::uint32_t victim_live_ = kNoVictim;
};

}  // namespace uc::ebs
