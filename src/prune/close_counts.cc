#include "prune/close_counts.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.h"

namespace trajsearch {

CloseCounter& CloseCounter::Local() {
  thread_local CloseCounter counter;
  return counter;
}

void CloseCounter::BeginQuery(int id_space, size_t points) {
  const size_t blocks = (points + kMaskBits - 1) / kMaskBits;
  TRAJ_CHECK(blocks < std::numeric_limits<uint32_t>::max() / 2);
  if (slots_.size() < static_cast<size_t>(id_space)) {
    slots_.resize(static_cast<size_t>(id_space));
  }
  if (next_epoch_ > std::numeric_limits<uint32_t>::max() - blocks) {
    // Epochs wrapped: forget every stamp once, then count up again.
    for (Slot& slot : slots_) slot.stamp = 0;
    next_epoch_ = 1;
  }
  first_epoch_ = next_epoch_;
  next_epoch_ += static_cast<uint32_t>(blocks);
  query_points_ = points;
  touched_.clear();
}

void CloseCounter::CollectCells(TrajectoryView points, size_t first,
                                size_t count, double cell) {
  cells_.clear();
  int64_t last_ix = 0;
  int64_t last_iy = 0;
  for (size_t i = 0; i < count; ++i) {
    const Point& p = points[first + i];
    const int64_t ix = GridCellCoord(p.x, cell);
    const int64_t iy = GridCellCoord(p.y, cell);
    const uint64_t bit = uint64_t{1} << i;
    if (i > 0 && ix == last_ix && iy == last_iy) {
      // Same cell as the previous point: same nine block cells.
      for (size_t c = cells_.size() - 9; c < cells_.size(); ++c) {
        cells_[c].mask |= bit;
      }
      continue;
    }
    last_ix = ix;
    last_iy = iy;
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        cells_.push_back(BlockCell{GridCellKey(ix + dx, iy + dy), bit});
      }
    }
  }
  std::sort(cells_.begin(), cells_.end(),
            [](const BlockCell& a, const BlockCell& b) { return a.key < b.key; });
  size_t distinct = 0;
  for (const BlockCell& block_cell : cells_) {
    if (distinct > 0 && cells_[distinct - 1].key == block_cell.key) {
      cells_[distinct - 1].mask |= block_cell.mask;
    } else {
      cells_[distinct++] = block_cell;
    }
  }
  cells_.resize(distinct);
}

void CloseCounter::WalkCells(uint32_t epoch) {
  for (const BlockCell& cell : cells_) {
    const uint64_t mask = cell.mask;
    for (const int32_t* it = cell.begin; it != cell.end; ++it) {
      Slot& slot = slots_[static_cast<size_t>(*it)];
      if (slot.stamp == epoch) {
        slot.mask |= mask;
        continue;
      }
      if (slot.stamp >= first_epoch_) {
        // Touched by an earlier block of this query: bank its points.
        slot.count += static_cast<uint32_t>(std::popcount(slot.mask));
      } else {
        slot.count = 0;
        touched_.push_back(*it);
      }
      slot.stamp = epoch;
      slot.mask = mask;
    }
  }
}

uint64_t CloseCounter::LastMask(int id) const {
  const Slot& slot = slots_[static_cast<size_t>(id)];
  return slot.stamp == first_epoch_ ? slot.mask : 0;
}

int CloseCounter::Total(int id) const {
  const Slot& slot = slots_[static_cast<size_t>(id)];
  return static_cast<int>(slot.count) + std::popcount(slot.mask);
}

void CloseCounter::AllCounts(std::vector<std::pair<int, int>>* out) const {
  out->clear();
  out->reserve(touched_.size());
  for (const int id : touched_) out->emplace_back(id, Total(id));
  std::sort(out->begin(), out->end());
}

void CloseCounter::Survivors(double mu, CandidateOrder order,
                             std::vector<int>* out) {
  const double threshold = mu * static_cast<double>(query_points_);
  out->clear();
  if (order == CandidateOrder::kById) {
    for (const int id : touched_) {
      if (static_cast<double>(Total(id)) >= threshold) out->push_back(id);
    }
    std::sort(out->begin(), out->end());
    return;
  }
  // One packed key per survivor: (UINT32_MAX - count) in the high half,
  // the id in the low half, so ascending keys are descending count,
  // ascending id.
  order_.clear();
  for (const int id : touched_) {
    const int count = Total(id);
    if (!(static_cast<double>(count) >= threshold)) continue;
    order_.push_back(
        (uint64_t{std::numeric_limits<uint32_t>::max() -
                  static_cast<uint32_t>(count)}
         << 32) |
        static_cast<uint32_t>(id));
  }
  std::sort(order_.begin(), order_.end());
  out->reserve(order_.size());
  for (const uint64_t key : order_) {
    out->push_back(static_cast<int>(key & 0xffffffffu));
  }
}

}  // namespace trajsearch
