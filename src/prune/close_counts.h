#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/trajectory.h"
#include "util/check.h"

namespace trajsearch {

/// GBP cell coordinate of `v` for cell side `cell`: floor(v / cell). Shared
/// by both grids' builders, the counting pass and KpfBoundPlan's grid
/// pre-bound, so every layer classifies a point into the same cell.
inline int64_t GridCellCoord(double v, double cell) {
  return static_cast<int64_t>(std::floor(v / cell));
}

/// Hash key of grid cell (ix, iy).
inline int64_t GridCellKey(int64_t ix, int64_t iy) {
  return (ix << 32) ^ (iy & 0xffffffffLL);
}

/// Order of the ids GBP hands the engine.
enum class CandidateOrder {
  /// Ascending id.
  kById,
  /// Descending close count, ascending id within equal counts.
  kByCloseCount,
};

/// \brief The one GBP counting pass (Appendix B), shared by GridIndex (CSR
/// postings) and DeltaGridIndex (hash-map postings).
///
/// A query point is close to T when T has a point in the point's 3x3 block
/// of cells; close(q, T) counts such query points. The pass takes the query
/// in blocks of up to 64 points. For each block it collects the distinct
/// block cells, each with a 64-bit mask of the block's points whose 3x3
/// block covers it, then walks every cell's postings exactly once, OR-ing
/// the cell's mask into one 16-byte slot per id. close(q, T) is the
/// popcount of the mask, summed across blocks. The slots are epoch-stamped,
/// so they are never cleared between queries.
///
/// One instance per thread (Local()); it grows to the largest id space
/// queried on the thread and then allocates nothing.
class CloseCounter {
 public:
  /// Maximum number of mask points (one bit each).
  static constexpr size_t kMaskBits = 64;

  /// This thread's counter.
  static CloseCounter& Local();

  /// Counts close(q, T) over `grid` for ids in [0, id_space). `Grid` models
  ///   double cell_size() const;
  ///   std::pair<const int32_t*, const int32_t*> CellRange(int64_t) const;
  /// (the postings of one cell, ascending ids, or an empty range).
  template <typename Grid>
  void Count(const Grid& grid, TrajectoryView query, int id_space);

  /// After Count: every (id, close count) with a nonzero count, ascending id.
  void AllCounts(std::vector<std::pair<int, int>>* out) const;

  /// After Count: the ids with close(q, T) >= mu * |query|, in `order`. The
  /// mu filter runs before the sort, so only survivors are sorted.
  void Survivors(double mu, CandidateOrder order, std::vector<int>* out);

  /// The engine's entry point: Count, then Survivors into `ids`. When
  /// `mask_points` (indices into a query of at most kMaskBits points) is
  /// non-empty, also fills `masks` parallel to `ids`: bit k is set iff the
  /// candidate has a point in the 3x3 block of query[mask_points[k]], read
  /// off the counting pass's single block.
  template <typename Grid>
  void Select(const Grid& grid, TrajectoryView query, int id_space, double mu,
              CandidateOrder order, std::span<const int> mask_points,
              std::vector<int>* ids, std::vector<uint64_t>* masks);

 private:
  struct Slot {
    uint64_t mask = 0;   // block points close to this id (stamp's block)
    uint32_t stamp = 0;  // block epoch that last wrote `mask`
    uint32_t count = 0;  // close points from this query's earlier blocks
  };
  static_assert(sizeof(Slot) == 16);

  struct BlockCell {
    int64_t key = 0;
    uint64_t mask = 0;
    const int32_t* begin = nullptr;
    const int32_t* end = nullptr;
  };

  /// Sizes the slots for `id_space` ids and reserves one epoch per block
  /// of `points`.
  void BeginQuery(int id_space, size_t points);
  /// Collects the distinct block cells of points [first, first + count)
  /// with their masks into cells_ (postings unresolved).
  void CollectCells(TrajectoryView points, size_t first, size_t count,
                    double cell);
  /// Walks every collected cell's postings once under block epoch `epoch`.
  void WalkCells(uint32_t epoch);
  /// Mask of `id` for the single-block pass that just ran (0 if untouched).
  uint64_t LastMask(int id) const;
  /// Close count of `id` after a pass (the id must have been touched).
  int Total(int id) const;

  std::vector<Slot> slots_;
  std::vector<BlockCell> cells_;
  std::vector<int> touched_;
  std::vector<uint64_t> order_;  // packed (count rank, id) sort keys
  uint32_t first_epoch_ = 0;  // epoch of the current query's first block
  uint32_t next_epoch_ = 1;
  size_t query_points_ = 0;
};

template <typename Grid>
void CloseCounter::Count(const Grid& grid, TrajectoryView points,
                         int id_space) {
  BeginQuery(id_space, points.size());
  for (size_t first = 0; first < points.size(); first += kMaskBits) {
    const size_t count = std::min(kMaskBits, points.size() - first);
    CollectCells(points, first, count, grid.cell_size());
    for (BlockCell& cell : cells_) {
      const auto [begin, end] = grid.CellRange(cell.key);
      cell.begin = begin;
      cell.end = end;
    }
    WalkCells(first_epoch_ + static_cast<uint32_t>(first / kMaskBits));
  }
}

template <typename Grid>
void CloseCounter::Select(const Grid& grid, TrajectoryView query,
                          int id_space, double mu, CandidateOrder order,
                          std::span<const int> mask_points,
                          std::vector<int>* ids,
                          std::vector<uint64_t>* masks) {
  TRAJ_CHECK(mask_points.empty() || query.size() <= kMaskBits);
  Count(grid, query, id_space);
  Survivors(mu, order, ids);
  masks->clear();
  if (mask_points.empty()) return;
  // One block: bit i of the counting mask is query point i.
  masks->resize(ids->size());
  for (size_t c = 0; c < ids->size(); ++c) {
    const uint64_t close = LastMask((*ids)[c]);
    uint64_t mask = 0;
    for (size_t k = 0; k < mask_points.size(); ++k) {
      mask |= ((close >> mask_points[k]) & 1u) << k;
    }
    (*masks)[c] = mask;
  }
}

}  // namespace trajsearch
