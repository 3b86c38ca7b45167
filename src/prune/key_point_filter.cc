#include "prune/key_point_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "prune/close_counts.h"
#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

namespace {

double MinSub(const DistanceSpec& spec, TrajectoryView query, int i,
              TrajectoryView data) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet: {
      const EuclideanSub sub{query, data};
      double best = sub(i, 0);
      for (int j = 1; j < static_cast<int>(data.size()); ++j) {
        best = std::min(best, sub(i, j));
      }
      return best;
    }
    default:
      return VisitWedCosts(spec, query, data, [&](const auto& costs) {
        double best = costs.Sub(i, 0);
        for (int j = 1; j < static_cast<int>(data.size()); ++j) {
          best = std::min(best, costs.Sub(i, j));
        }
        return best;
      });
  }
}

/// Minimum over the points of `data` of the squared distance to `q`: lane
/// groups over the SoA columns when `cols` is given, the AoS points for the
/// tail (or everything without columns). Every lane runs the scalar
/// SquaredDistance's operations, and min is exact, so the result is the
/// same in both paths.
double MinSquaredDistance(const Point& q, TrajectoryView data,
                          PointCols cols) {
  const size_t n = data.size();
  double best = std::numeric_limits<double>::infinity();
  size_t j = 0;
  if (!cols.empty() && n >= static_cast<size_t>(simd::kLanes)) {
    const simd::VecD qx = simd::VecD::Broadcast(q.x);
    const simd::VecD qy = simd::VecD::Broadcast(q.y);
    simd::VecD lanes = simd::VecD::Broadcast(best);
    for (; j + simd::kLanes <= n; j += simd::kLanes) {
      const simd::VecD dx = qx - simd::VecD::Load(cols.x + j);
      const simd::VecD dy = qy - simd::VecD::Load(cols.y + j);
      lanes = simd::VecD::Min(lanes, dx * dx + dy * dy);
    }
    best = lanes.ReduceMin();
  }
  for (; j < n; ++j) best = std::min(best, SquaredDistance(q, data[j]));
  return best;
}

/// Relative margin of the grid pre-bound's edge terms. The cell test
/// floor(x / cell) and the edge arithmetic each round within a few ulps of
/// the coordinates' magnitude, and the candidate-side sqrt(dx^2 + dy^2)
/// within 3 ulps of the true distance; 2^-40 covers both with room to
/// spare.
constexpr double kEdgeMargin = 0x1p-40;
/// Below this an edge term is 0: squares of smaller differences may
/// underflow, which the relative margin does not cover.
constexpr double kEdgeFloor = 0x1p-500;

/// A lower bound on the computed Euclidean distance from `q` to any point
/// the grid places outside q's 3x3 block of cells: q's distance to the
/// block's edge, shrunk by the margin. It is 0 below kEdgeFloor, and when
/// q's cell index is past what a double represents exactly.
double CertifiedEdgeDistance(const Point& q, double cell) {
  if (!(std::fabs(q.x / cell) < 0x1p52 && std::fabs(q.y / cell) < 0x1p52)) {
    return 0;
  }
  const int64_t ix = GridCellCoord(q.x, cell);
  const int64_t iy = GridCellCoord(q.y, cell);
  const double x_lo = static_cast<double>(ix - 1) * cell;
  const double x_hi = static_cast<double>(ix + 2) * cell;
  const double y_lo = static_cast<double>(iy - 1) * cell;
  const double y_hi = static_cast<double>(iy + 2) * cell;
  const double edge = std::min({q.x - x_lo, x_hi - q.x, q.y - y_lo, y_hi - q.y});
  const double scale =
      std::max({std::fabs(x_lo), std::fabs(x_hi), std::fabs(y_lo),
                std::fabs(y_hi), std::fabs(q.x), std::fabs(q.y)});
  const double shrunk = (edge - scale * kEdgeMargin) * (1 - kEdgeMargin);
  return shrunk > kEdgeFloor ? shrunk : 0;
}

}  // namespace

double KpfPointMinCost(const DistanceSpec& spec, TrajectoryView query, int i,
                       TrajectoryView data) {
  const double min_sub = MinSub(spec, query, i, data);
  if (spec.kind == DistanceKind::kDtw || spec.kind == DistanceKind::kFrechet) {
    return min_sub;  // deletion cost is itself a substitution (§5.2)
  }
  return VisitWedCosts(spec, query, data, [&](const auto& costs) {
    return std::min(costs.Del(i), min_sub);
  });
}

double KpfLowerBoundEstimate(const DistanceSpec& spec, TrajectoryView query,
                             TrajectoryView data, double sample_rate) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  const bool use_max = spec.kind == DistanceKind::kFrechet;
  double total = 0;
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query.
    const int i = static_cast<int>(
        (static_cast<int64_t>(k) * m) / key_count);
    const double c = KpfPointMinCost(spec, query, i, data);
    if (use_max) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max) return total;  // a max never needs rescaling
  const double effective_rate =
      static_cast<double>(key_count) / static_cast<double>(m);
  return total / effective_rate;
}

double OsfLowerBound(const DistanceSpec& spec, TrajectoryView query,
                     TrajectoryView data) {
  return KpfLowerBoundEstimate(spec, query, data, /*sample_rate=*/1.0);
}

void KpfBoundPlan::Bind(const DistanceSpec& spec, TrajectoryView query,
                        double sample_rate, double cell_size) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  TRAJ_CHECK(!query.empty());
  spec_ = spec;
  query_ = query;
  use_max_ = spec.kind == DistanceKind::kFrechet;
  wed_family_ = spec.IsWedFamily();
  vector_ = simd::Enabled();
  edr_eps2_ = spec.edr_epsilon * spec.edr_epsilon;

  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  key_points_.resize(static_cast<size_t>(key_count));
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query — identical index math to
    // KpfLowerBoundEstimate.
    key_points_[static_cast<size_t>(k)] =
        static_cast<int>((static_cast<int64_t>(k) * m) / key_count);
  }
  effective_rate_ = static_cast<double>(key_count) / static_cast<double>(m);

  // Deletion costs are query-side only (EDR: constant 1; ERP: distance to
  // the gap point; WED: user del of the query point) — hoist them out of
  // the per-candidate loop.
  key_del_.clear();
  if (wed_family_) {
    key_del_.reserve(static_cast<size_t>(key_count));
    // The data view is unused by Del; the query stands in for it.
    VisitWedCosts(spec_, query_, query_, [&](const auto& costs) {
      for (const int i : key_points_) key_del_.push_back(costs.Del(i));
    });
  }

  // Grid pre-bound terms: each key point's certified block-edge distance
  // mapped through the distance's substitution cost, then capped by its
  // deletion cost exactly as LowerBound caps the min-substitution term.
  grid_terms_.clear();
  if (cell_size <= 0 || spec.kind == DistanceKind::kWed ||
      query.size() > CloseCounter::kMaskBits) {
    return;
  }
  for (size_t k = 0; k < key_points_.size(); ++k) {
    const double edge = CertifiedEdgeDistance(
        query_[static_cast<size_t>(key_points_[k])], cell_size);
    double term = edge;
    if (spec.kind == DistanceKind::kEdr) {
      // Every point farther than epsilon (with the margin) costs 1.
      term = std::isfinite(edr_eps2_) && edge > std::fabs(spec.edr_epsilon)
                 ? 1.0
                 : 0.0;
    }
    if (wed_family_) term = std::min(key_del_[k], term);
    grid_terms_.push_back(term);
  }
}

double KpfBoundPlan::LowerBound(TrajectoryView data, PointCols cols) const {
  TRAJ_CHECK(!key_points_.empty());
  if (!vector_) cols = PointCols{};
  double total = 0;
  for (size_t k = 0; k < key_points_.size(); ++k) {
    const int i = key_points_[k];
    double c;
    if (spec_.kind == DistanceKind::kWed) {
      c = MinSub(spec_, query_, i, data);
    } else {
      const double min_sq =
          MinSquaredDistance(query_[static_cast<size_t>(i)], data, cols);
      c = spec_.kind == DistanceKind::kEdr ? (min_sq <= edr_eps2_ ? 0.0 : 1.0)
                                           : std::sqrt(min_sq);
    }
    if (wed_family_) c = std::min(key_del_[k], c);
    if (use_max_) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max_) return total;  // a max never needs rescaling
  return total / effective_rate_;
}

double KpfBoundPlan::GridBound(uint64_t mask) const {
  TRAJ_DCHECK(!grid_terms_.empty());
  double total = 0;
  for (size_t k = 0; k < grid_terms_.size(); ++k) {
    const double c = ((mask >> k) & 1u) != 0 ? 0.0 : grid_terms_[k];
    if (use_max_) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max_) return total;
  return total / effective_rate_;
}

void KpfBoundPlan::SortByBound(std::vector<int>* ids,
                               std::vector<double>* bounds) {
  // Sort an index permutation, then apply it to both arrays; `ids` arrives
  // ascending, so (bound, id) ordering equals (bound, position) ordering.
  thread_local std::vector<std::pair<double, int>> order;
  order.clear();
  order.reserve(ids->size());
  for (size_t c = 0; c < ids->size(); ++c) {
    order.emplace_back((*bounds)[c], (*ids)[c]);
  }
  std::sort(order.begin(), order.end());
  for (size_t c = 0; c < order.size(); ++c) {
    (*bounds)[c] = order[c].first;
    (*ids)[c] = order[c].second;
  }
}

}  // namespace trajsearch
