#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace trajsearch::obs {

/// \brief Stages of the serving pipeline (and corpus lifecycle events) a
/// trace span can describe. Query spans follow the paper's pipeline order:
/// cache lookup -> GBP candidate generation -> KPF/OSF bound filter -> DP
/// search -> SharedTopK merge.
enum class SpanKind : uint32_t {
  kCacheLookup = 0,
  kCandidates,
  kBoundFilter,
  kDpSearch,
  kMerge,
  kAppend,
  kCompaction,
};

std::string_view ToString(SpanKind kind);

/// \brief One recorded span: which stage ran, for which query (0 for
/// corpus-lifecycle events), when, for how long, and a stage-specific count
/// (candidates in, survivors out, trajectories appended, ...).
struct TraceSpan {
  uint64_t query_id = 0;
  SpanKind kind = SpanKind::kCacheLookup;
  int64_t start_nanos = 0;     // obs::NowNanos() at span start
  int64_t duration_nanos = 0;
  int64_t value = 0;
};

/// \brief Bounded lock-free ring of trace spans.
///
/// Record() claims a slot with one atomic fetch_add and writes through
/// per-field relaxed atomics bracketed by a per-slot TicketSeqLock stamp;
/// when the ring is full the oldest span is overwritten. A writer that
/// finds its slot held by another in-flight write, or already overwritten
/// by a newer claim, drops its span and counts it in dropped(). Snapshot() returns
/// the retained spans oldest-first, dropping any slot it caught mid-write
/// (the ticket stamp changed underneath it) — readers never block writers
/// and the whole structure is data-race-free under TSan.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 16).
  explicit TraceRing(size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(const TraceSpan& span);

  /// Consistent retained spans, oldest first.
  std::vector<TraceSpan> Snapshot() const;

  size_t capacity() const { return slots_capacity_; }
  /// Spans recorded since construction (recorded - capacity() of them have
  /// been overwritten, saturating at zero).
  uint64_t recorded() const {
    // relaxed: a monitoring read of the claim counter; any recent value is
    // acceptable and no slot payload is accessed through it.
    return next_.load(std::memory_order_relaxed);
  }
  /// Spans Record() dropped because their slot was taken by a concurrent
  /// write (recorded() counts them too).
  uint64_t dropped() const {
    // relaxed: a monitoring read of a statistics counter.
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// One ring slot. `ticket` implements the claim-stamped seqlock protocol
  /// (util/sync.h TicketSeqLock): odd 2*claim+1 while the one writer that
  /// won the slot fills it, even 2*claim+2 when the payload is complete; a
  /// reader that sees an odd or changed ticket drops the slot. All payload
  /// fields are atomics, so a read that overlaps the write is race-free
  /// word by word, and the failed ticket validation keeps the mix from
  /// being returned.
  struct Slot {
    TicketSeqLock ticket;
    std::atomic<uint64_t> query_id{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<int64_t> start_nanos{0};
    std::atomic<int64_t> duration_nanos{0};
    std::atomic<int64_t> value{0};
  };

  size_t slots_capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace trajsearch::obs
