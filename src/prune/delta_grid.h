#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trajectory.h"
#include "prune/close_counts.h"

namespace trajsearch {

/// \brief Incremental GBP grid over a live corpus's delta.
///
/// The base corpus keeps its CSR GridIndex — contiguous, cache-friendly, and
/// immutable — while trajectories appended since the last compaction are
/// indexed here: a small chained hash-grid that supports O(points) Add()
/// with no rebuild. Candidate generation over a live corpus unions the two:
/// base candidates from the CSR postings, delta candidates from these. Cell
/// geometry (CellKey, the 3x3 close-neighbourhood, the mu threshold)
/// matches GridIndex exactly, so for any common cell size
///   close counts(base CSR) ∪ close counts(delta grid)
///     == close counts(one grid over base + delta),
/// which is what the live-vs-fresh equivalence gate relies on.
///
/// Ids are delta-local ([0, size()) in Add order); the serving layer maps
/// them to corpus ids by adding the base size. The service builds one index
/// per published generation, lazily on the first query that needs it, from
/// that generation's immutable DeltaView — so readers of a pinned
/// generation never observe a concurrent Add, and pure ingest builds no
/// grids at all. Reads (CloseCounts and friends) are const and safe from
/// many threads; Add is writer-side only.
class DeltaGridIndex {
 public:
  explicit DeltaGridIndex(double cell_size);

  /// Indexes the next delta trajectory (id = number of prior Adds).
  void Add(TrajectoryView trajectory);

  /// close(q, T) for every delta trajectory with a nonzero count, as
  /// (delta id, count) pairs in ascending id order — the same contract as
  /// GridIndex::CloseCounts. Reuses `out` capacity; concurrency-safe.
  void CloseCounts(TrajectoryView query,
                   std::vector<std::pair<int, int>>* out) const;

  /// Delta ids with close(q, T) >= mu * |query|, ascending id.
  void Candidates(TrajectoryView query, double mu,
                  std::vector<int>* out) const;

  /// Same candidate set ordered most-promising-first (descending close
  /// count, ascending id on ties), mirroring GridIndex::OrderedCandidates.
  void OrderedCandidates(TrajectoryView query, double mu,
                         std::vector<int>* out) const;

  /// The engine's entry point, mirroring GridIndex::Select.
  void Select(TrajectoryView query, double mu, CandidateOrder order,
              std::span<const int> mask_points, std::vector<int>* ids,
              std::vector<uint64_t>* masks) const;

  /// Postings of the cell with `key` (ascending ids), or an empty range.
  std::pair<const int32_t*, const int32_t*> CellRange(int64_t key) const;

  double cell_size() const { return cell_size_; }
  /// Number of indexed delta trajectories.
  int size() const { return size_; }
  size_t cell_count() const { return cells_.size(); }
  /// Total (cell, id) postings (duplicates from cell revisits excluded).
  size_t entry_count() const { return entry_count_; }

 private:
  int64_t CellKey(double x, double y) const;

  double cell_size_;
  int size_ = 0;
  size_t entry_count_ = 0;
  /// cell key -> delta ids passing through the cell (ascending, unique).
  std::unordered_map<int64_t, std::vector<int32_t>> cells_;
};

}  // namespace trajsearch
