#pragma once

#include <span>
#include <vector>

#include "core/dataset.h"
#include "distance/distance.h"

namespace trajsearch {

/// Key Points Filter (KPF, Appendix B) and the OSF comparator.
///
/// Theorem B.1: minCost(q, T) = sum_i min(del(q_i), min_j sub(q_i, T_j))
/// lower-bounds the optimal conversion cost min_j C_{m,j}. KPF samples
/// r * m uniformly spaced key points, computes their minCost sum, and scales
/// by 1/r — an O(r * m * n) *estimate* of the bound (not a guaranteed lower
/// bound when r < 1, hence the "loss" metric of Figure 11). A data
/// trajectory is pruned when the estimate exceeds the distance of the best
/// subtrajectory found so far.

/// \brief Exact per-point lower-bound term of Theorem B.1:
/// min(del(q_i), min_j sub(q_i, d_j)); for DTW del is tied to the match, so
/// the term reduces to min_j sub; for Fréchet the aggregate uses max rather
/// than sum (see KpfLowerBoundEstimate).
double KpfPointMinCost(const DistanceSpec& spec, TrajectoryView query, int i,
                       TrajectoryView data);

/// \brief KPF estimate with sampling rate `sample_rate` in (0, 1]. With
/// sample_rate == 1 this is the exact Theorem B.1 bound (never prunes the
/// optimum). Uniformly spaced key points, scaled by 1/r (Equation 28).
double KpfLowerBoundEstimate(const DistanceSpec& spec, TrajectoryView query,
                             TrajectoryView data, double sample_rate);

/// \brief OSF comparator (substitution for Koide et al. 2020, see
/// DESIGN.md): the exact Theorem B.1 bound over *all* query points with no
/// sampling and no grid acceleration — a correct but slower filter.
double OsfLowerBound(const DistanceSpec& spec, TrajectoryView query,
                     TrajectoryView data);

/// \brief Query-bound KPF/OSF plan: the key-point sample — index positions,
/// the query-side deletion cost of each key point, and the 1/r rescale — is
/// computed once per Bind instead of once per (query, data) pair, leaving
/// only the min-substitution scan against the candidate in LowerBound().
///
/// LowerBound() reproduces KpfLowerBoundEstimate bit for bit (same key
/// points, same accumulation order), so an engine switching between the two
/// makes identical pruning decisions. A bound plan is immutable after Bind
/// and LowerBound is const, so one bound plan may be shared by all worker
/// threads of a query. With sample_rate == 1.0 this is the OSF comparator.
///
/// Bound to a GBP grid's cell side, the plan also offers a *grid pre-bound*
/// (GridBound): when a candidate has no point in key point q_k's 3x3 block
/// of cells, every point of the candidate lies outside that block, so q_k's
/// min-substitution term is at least q_k's distance to the block's edge.
/// Summing (or, for Fréchet, maxing) those edge terms over the key points
/// whose block the candidate misses gives a bound that never exceeds
/// LowerBound(), computed from the GBP mask alone, before anything reads
/// the candidate's points.
class KpfBoundPlan {
 public:
  /// (Re-)computes the key-point sample for `query` (non-empty; the view
  /// must stay valid while LowerBound is used). Scratch capacity is reused.
  /// A positive `cell_size` (the GBP grid's cell side) also prepares the
  /// grid pre-bound where it applies: DTW, Fréchet, ERP and EDR (whose
  /// substitution costs are monotone in Euclidean distance), for queries of
  /// at most 64 points (the grid reads every mask off one counting block).
  /// Generic WED and longer queries keep the plain bound.
  void Bind(const DistanceSpec& spec, TrajectoryView query,
            double sample_rate, double cell_size = 0);

  /// The KPF estimate (Theorem B.1 / Equation 28) against one candidate.
  /// Each key point's term takes the minimum of the *squared* distances
  /// (over `cols`, the candidate's SoA columns, in vector lanes when SIMD is
  /// on; over the AoS points when `cols` is empty) and then one sqrt (DTW,
  /// Fréchet, ERP) or one epsilon test (EDR). sqrt is correctly rounded and
  /// monotone and the build never contracts into FMAs, so this equals the
  /// min of the per-point distances bit for bit on finite data.
  double LowerBound(TrajectoryView data, PointCols cols = {}) const;

  /// Query indices of the key points whose block masks GridBound reads, in
  /// key-point order (bit k of a mask is key point k); empty when the grid
  /// pre-bound does not apply to this Bind.
  std::span<const int> mask_points() const {
    if (grid_terms_.empty()) return {};
    return key_points_;
  }

  /// The grid pre-bound of a candidate whose GBP mask over mask_points() is
  /// `mask`: key points whose block holds a point of the candidate add 0,
  /// the others add their certified edge term, accumulated exactly like
  /// LowerBound. Every term is at most the matching LowerBound term, so
  /// the result is at most LowerBound(candidate), and a monotone prune
  /// (SharedTopK::ShouldPrune) on it prunes only what LowerBound would.
  /// Requires a non-empty mask_points().
  double GridBound(uint64_t mask) const;

  /// Bound-for-ordering hook for the engine's shared-threshold search when
  /// no grid index is available: computes LowerBound for every candidate in
  /// `ids` (resolved through `data` — a DatasetView or a DeltaView, source-
  /// local ids) into `bounds` (parallel to `ids`), then stably reorders both
  /// by ascending bound, ascending id on ties. Candidates with the smallest
  /// lower bounds — the only ones that can beat a tight threshold — run
  /// first and tighten the global top-K early; the computed bounds are
  /// returned so the caller's bound filter can reuse them instead of
  /// recomputing. Empty candidates get bound 0 (never pruned, matching the
  /// engine's empty-trajectory skip).
  template <typename Source>
  void OrderByBound(const Source& data, std::vector<int>* ids,
                    std::vector<double>* bounds) const {
    bounds->resize(ids->size());
    for (size_t c = 0; c < ids->size(); ++c) {
      const int id = (*ids)[c];
      const TrajectoryView candidate = data[id];
      (*bounds)[c] =
          candidate.empty() ? 0.0 : LowerBound(candidate, data.cols(id));
    }
    SortByBound(ids, bounds);
  }

 private:
  /// Reorders `ids` and the parallel `bounds` by (bound, id) ascending.
  static void SortByBound(std::vector<int>* ids, std::vector<double>* bounds);

  DistanceSpec spec_;
  TrajectoryView query_;
  bool use_max_ = false;        // Fréchet aggregates by max, not sum
  bool wed_family_ = false;     // true when deletion costs participate
  bool vector_ = false;         // SIMD dispatch sampled at Bind
  double edr_eps2_ = 0;         // EDR: epsilon * epsilon
  double effective_rate_ = 1.0;
  std::vector<int> key_points_;     // sampled query indices, ascending
  std::vector<double> key_del_;     // del(q_i) per key point (WED family)
  /// Grid pre-bound term per key point (empty: no pre-bound this Bind).
  std::vector<double> grid_terms_;
};

}  // namespace trajsearch
