#include "obs/trace.h"

namespace trajsearch::obs {

std::string_view ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCacheLookup: return "cache_lookup";
    case SpanKind::kCandidates: return "candidates";
    case SpanKind::kBoundFilter: return "bound_filter";
    case SpanKind::kDpSearch: return "dp_search";
    case SpanKind::kMerge: return "merge";
    case SpanKind::kAppend: return "append";
    case SpanKind::kCompaction: return "compaction";
  }
  return "unknown";
}

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : slots_capacity_(RoundUpPow2(capacity)),
      mask_(slots_capacity_ - 1),
      slots_(new Slot[slots_capacity_]) {}

void TraceRing::Record(const TraceSpan& span) {
  // relaxed: the fetch_add only needs a unique claim; the slot's ticket
  // stamps (release) are what order the payload against readers.
  const uint64_t claim = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim & mask_];
  // Claim-stamped write (TicketSeqLock): the slot is taken with a CAS from
  // an even ticket below this claim's. A writer that finds another write in
  // flight, or a newer one already published (it was lapped while
  // stalled), drops its span instead of mixing payloads with that write.
  if (!slot.ticket.WriteBegin(claim)) {
    // relaxed: a statistics counter; no payload is published through it.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // relaxed (payload stores): individually race-free words whose ordering
  // against readers comes from the WriteBegin/WriteEnd brackets (release
  // fence and store) and the reader's acquire-ordered ticket validation —
  // the classic seqlock payload.
  slot.query_id.store(span.query_id, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint32_t>(span.kind), std::memory_order_relaxed);
  slot.start_nanos.store(span.start_nanos, std::memory_order_relaxed);
  slot.duration_nanos.store(span.duration_nanos, std::memory_order_relaxed);
  slot.value.store(span.value, std::memory_order_relaxed);
  slot.ticket.WriteEnd(claim);
}

std::vector<TraceSpan> TraceRing::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t begin =
      end > slots_capacity_ ? end - slots_capacity_ : 0;
  std::vector<TraceSpan> spans;
  spans.reserve(static_cast<size_t>(end - begin));
  for (uint64_t claim = begin; claim < end; ++claim) {
    const Slot& slot = slots_[claim & mask_];
    if (!slot.ticket.ReadBegin(claim)) continue;  // unwritten, lapped, in flight
    TraceSpan span;
    // relaxed (payload loads): bracketed by ReadBegin's acquire load and
    // ReadValidate's acquire fence; a concurrent overwrite flips the
    // ticket, failing ReadValidate below.
    span.query_id = slot.query_id.load(std::memory_order_relaxed);
    span.kind = static_cast<SpanKind>(slot.kind.load(std::memory_order_relaxed));
    span.start_nanos = slot.start_nanos.load(std::memory_order_relaxed);
    span.duration_nanos = slot.duration_nanos.load(std::memory_order_relaxed);
    span.value = slot.value.load(std::memory_order_relaxed);
    if (!slot.ticket.ReadValidate(claim)) continue;
    spans.push_back(span);
  }
  return spans;
}

}  // namespace trajsearch::obs
