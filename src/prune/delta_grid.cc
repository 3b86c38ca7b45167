#include "prune/delta_grid.h"

#include "util/check.h"

namespace trajsearch {

DeltaGridIndex::DeltaGridIndex(double cell_size) : cell_size_(cell_size) {
  TRAJ_CHECK(cell_size > 0);
}

int64_t DeltaGridIndex::CellKey(double x, double y) const {
  // Identical to GridIndex::CellKey, so base and delta grids agree on cell
  // geometry for any shared cell size.
  return GridCellKey(GridCellCoord(x, cell_size_), GridCellCoord(y, cell_size_));
}

std::pair<const int32_t*, const int32_t*> DeltaGridIndex::CellRange(
    int64_t key) const {
  const auto it = cells_.find(key);
  if (it == cells_.end()) return {nullptr, nullptr};
  return {it->second.data(), it->second.data() + it->second.size()};
}

void DeltaGridIndex::Add(TrajectoryView trajectory) {
  const int32_t id = static_cast<int32_t>(size_++);
  int64_t last_key = 0;
  bool have_last = false;
  for (const Point& p : trajectory) {
    const int64_t key = CellKey(p.x, p.y);
    if (have_last && key == last_key) continue;
    last_key = key;
    have_last = true;
    std::vector<int32_t>& ids = cells_[key];
    // Within one Add only `id` is appended, so a revisited cell always has
    // `id` as its last element — an O(1) exact (cell, id) dedupe.
    if (!ids.empty() && ids.back() == id) continue;
    ids.push_back(id);
    ++entry_count_;
  }
}

void DeltaGridIndex::CloseCounts(TrajectoryView query,
                                 std::vector<std::pair<int, int>>* out) const {
  CloseCounter& counter = CloseCounter::Local();
  counter.Count(*this, query, size_);
  counter.AllCounts(out);
}

void DeltaGridIndex::Select(TrajectoryView query, double mu,
                            CandidateOrder order,
                            std::span<const int> mask_points,
                            std::vector<int>* ids,
                            std::vector<uint64_t>* masks) const {
  CloseCounter::Local().Select(*this, query, size_, mu, order, mask_points,
                               ids, masks);
}

void DeltaGridIndex::Candidates(TrajectoryView query, double mu,
                                std::vector<int>* out) const {
  CloseCounter& counter = CloseCounter::Local();
  counter.Count(*this, query, size_);
  counter.Survivors(mu, CandidateOrder::kById, out);
}

void DeltaGridIndex::OrderedCandidates(TrajectoryView query, double mu,
                                       std::vector<int>* out) const {
  CloseCounter& counter = CloseCounter::Local();
  counter.Count(*this, query, size_);
  counter.Survivors(mu, CandidateOrder::kByCloseCount, out);
}

}  // namespace trajsearch
