#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "gen/taxi.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/cma.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::PaperGpsSpecs;
using testing::RandomWalk;

Dataset SmallDataset(int count, int mean_len, uint64_t seed) {
  Dataset dataset("test");
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataset.Add(RandomWalk(&rng, mean_len + static_cast<int>(rng.UniformInt(
                                     -mean_len / 2, mean_len / 2))));
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// GridIndex (GBP).
// ---------------------------------------------------------------------------

TEST(GridIndexTest, CloseCountsMatchDirectComputation) {
  const Dataset dataset = SmallDataset(12, 20, 3);
  const double cell = 2.0;
  const GridIndex index(dataset, cell);
  Rng rng(9);
  const Trajectory query = RandomWalk(&rng, 8);

  // Direct: a query point is close to T iff some point of T lies in its
  // 3x3 cell neighbourhood.
  auto cell_of = [&](double v) {
    return static_cast<long long>(std::floor(v / cell));
  };
  std::vector<int> direct(static_cast<size_t>(dataset.size()), 0);
  for (const Point& qp : query.points()) {
    for (int id = 0; id < dataset.size(); ++id) {
      bool close = false;
      for (const Point& dp : dataset[id].points()) {
        if (std::llabs(cell_of(qp.x) - cell_of(dp.x)) <= 1 &&
            std::llabs(cell_of(qp.y) - cell_of(dp.y)) <= 1) {
          close = true;
          break;
        }
      }
      if (close) ++direct[static_cast<size_t>(id)];
    }
  }
  std::vector<int> indexed(static_cast<size_t>(dataset.size()), 0);
  for (const auto& [id, count] : index.CloseCounts(query)) {
    indexed[static_cast<size_t>(id)] = count;
  }
  for (int id = 0; id < dataset.size(); ++id) {
    EXPECT_EQ(indexed[static_cast<size_t>(id)],
              direct[static_cast<size_t>(id)])
        << "trajectory " << id;
  }
}

TEST(GridIndexTest, CandidatesRespectMuThreshold) {
  const Dataset dataset = SmallDataset(20, 15, 5);
  const GridIndex index(dataset, 1.5);
  Rng rng(11);
  const Trajectory query = RandomWalk(&rng, 10);
  const auto counts = index.CloseCounts(query);
  for (const double mu : {0.1, 0.4, 0.9}) {
    const auto candidates = index.Candidates(query, mu);
    size_t expected = 0;
    for (const auto& [id, count] : counts) {
      if (count >= mu * query.size()) ++expected;
    }
    EXPECT_EQ(candidates.size(), expected) << "mu=" << mu;
    // Larger mu never yields more candidates.
  }
  EXPECT_GE(index.Candidates(query, 0.1).size(),
            index.Candidates(query, 0.9).size());
}

TEST(GridIndexTest, TrajectoryContainingQueryAlwaysSurvives) {
  // A data trajectory that embeds the query must have close count == m.
  Rng rng(17);
  Dataset dataset("embed");
  const Trajectory host = RandomWalk(&rng, 40);
  dataset.Add(host);
  dataset.Add(RandomWalk(&rng, 30));
  std::vector<Point> qpts(host.points().begin() + 10,
                          host.points().begin() + 16);
  const Trajectory query(std::move(qpts));
  const GridIndex index(dataset, 0.5);
  const auto counts = index.CloseCounts(query);
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front().first, 0);
  EXPECT_EQ(counts.front().second, query.size());
}

// The one counting pass (CloseCounter) against a brute-force count, over
// both grids and both GridIndex storage modes. Points sit on a lattice of
// cell multiples (every coordinate on a cell edge) and around the origin
// (negative coordinates), so floor() rounding at edges and sign handling
// are exercised.
class MaskCountTest : public ::testing::TestWithParam<int> {};

Trajectory LatticeWalk(Rng* rng, int length, double cell) {
  std::vector<Point> points;
  double x = cell * static_cast<double>(rng->UniformInt(-6, 6));
  double y = cell * static_cast<double>(rng->UniformInt(-6, 6));
  for (int i = 0; i < length; ++i) {
    // Half the steps land exactly on cell edges, half strictly inside.
    const double jitter = rng->UniformInt(0, 1) == 0 ? 0.0 : cell * 0.5;
    points.push_back(Point{x + jitter, y - jitter});
    x += cell * static_cast<double>(rng->UniformInt(-1, 1));
    y += cell * static_cast<double>(rng->UniformInt(-1, 1));
  }
  return Trajectory(std::move(points));
}

int64_t CellOf(double v, double cell) {
  return static_cast<int64_t>(std::floor(v / cell));
}

/// True when `data` has a point in the 3x3 block of cells around `q`.
bool BlockHolds(const Point& q, TrajectoryView data, double cell) {
  for (const Point& d : data) {
    if (std::llabs(CellOf(q.x, cell) - CellOf(d.x, cell)) <= 1 &&
        std::llabs(CellOf(q.y, cell) - CellOf(d.y, cell)) <= 1) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<int, int>> BruteCloseCounts(const Dataset& dataset,
                                                  TrajectoryView query,
                                                  double cell) {
  std::vector<std::pair<int, int>> counts;
  for (int id = 0; id < dataset.size(); ++id) {
    int close = 0;
    for (const Point& q : query) close += BlockHolds(q, dataset[id], cell);
    if (close > 0) counts.emplace_back(id, close);
  }
  return counts;
}

template <typename Grid>
void ExpectMatchesBruteForce(const Grid& grid, const Dataset& dataset,
                             TrajectoryView query, double cell,
                             const std::string& label) {
  const std::vector<std::pair<int, int>> brute =
      BruteCloseCounts(dataset, query, cell);
  std::vector<std::pair<int, int>> counts;
  grid.CloseCounts(query, &counts);
  EXPECT_EQ(counts, brute) << label;

  for (const double mu : {0.0, 0.3, 0.7}) {
    // Survivors in both orders.
    std::vector<std::pair<int, int>> by_count;
    std::vector<int> by_id;
    for (const auto& [id, count] : brute) {
      if (static_cast<double>(count) >=
          mu * static_cast<double>(query.size())) {
        by_count.emplace_back(-count, id);
        by_id.push_back(id);
      }
    }
    std::sort(by_count.begin(), by_count.end());
    std::vector<int> ordered;
    for (const auto& [neg, id] : by_count) ordered.push_back(id);
    std::vector<int> ids;
    grid.Candidates(query, mu, &ids);
    EXPECT_EQ(ids, by_id) << label << " mu " << mu;
    grid.OrderedCandidates(query, mu, &ids);
    EXPECT_EQ(ids, ordered) << label << " mu " << mu;

    // Block masks over a spread of query points, read off the counting
    // pass; only queries of at most 64 points have them.
    if (query.size() > CloseCounter::kMaskBits) continue;
    std::vector<int> mask_points;
    for (size_t i = 0; i < query.size(); i += 1 + query.size() / 7) {
      mask_points.push_back(static_cast<int>(i));
    }
    mask_points.push_back(static_cast<int>(query.size()) - 1);
    std::vector<uint64_t> masks;
    grid.Select(query, mu, CandidateOrder::kByCloseCount, mask_points, &ids,
                &masks);
    EXPECT_EQ(ids, ordered) << label << " mu " << mu;
    ASSERT_EQ(masks.size(), ids.size()) << label;
    for (size_t c = 0; c < ids.size(); ++c) {
      uint64_t want = 0;
      for (size_t k = 0; k < mask_points.size(); ++k) {
        const Point& q = query[static_cast<size_t>(mask_points[k])];
        if (BlockHolds(q, dataset[ids[c]], cell)) want |= uint64_t{1} << k;
      }
      EXPECT_EQ(masks[c], want) << label << " candidate " << ids[c];
    }
  }
}

TEST_P(MaskCountTest, EveryGridMatchesBruteForce) {
  const double cell = 0.25;
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  Dataset dataset("lattice");
  DeltaGridIndex delta(cell);
  for (int i = 0; i < 40; ++i) {
    const Trajectory t =
        LatticeWalk(&rng, static_cast<int>(rng.UniformInt(1, 30)), cell);
    dataset.Add(t);
    delta.Add(t.View());
  }
  const GridIndex owned(dataset, cell);
  auto borrowed = GridIndex::FromParts(
      cell, dataset.size(), owned.cell_keys(), owned.cell_offsets(),
      owned.posting_ids(), owned.slot_keys(), owned.slot_cells(), nullptr);
  ASSERT_TRUE(borrowed.ok());
  ASSERT_TRUE(borrowed.value().borrowed());

  for (const int length : {1, 63, 64, 65, 130}) {
    const Trajectory query = LatticeWalk(&rng, length, cell);
    const std::string label = "m=" + std::to_string(length);
    ExpectMatchesBruteForce(owned, dataset, query.View(), cell,
                            label + " owned");
    ExpectMatchesBruteForce(borrowed.value(), dataset, query.View(), cell,
                            label + " borrowed");
    ExpectMatchesBruteForce(delta, dataset, query.View(), cell,
                            label + " delta");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskCountTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// KPF / OSF lower bounds (Theorem B.1).
// ---------------------------------------------------------------------------

class KpfBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(KpfBoundTest, FullRateBoundNeverExceedsOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 2);
  const Trajectory q = RandomWalk(&rng, static_cast<int>(rng.UniformInt(2, 8)));
  const Trajectory d =
      RandomWalk(&rng, static_cast<int>(rng.UniformInt(4, 25)));
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    const double optimum = CmaSearch(spec, q, d).distance;
    const double bound = OsfLowerBound(spec, q, d);
    EXPECT_LE(bound, optimum + 1e-9)
        << ToString(spec.kind) << ": Theorem B.1 violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KpfBoundTest, ::testing::Range(0, 24));

TEST(KpfBoundTest, SampledEstimateIsFiniteAndNonNegative) {
  Rng rng(77);
  const Trajectory q = RandomWalk(&rng, 20);
  const Trajectory d = RandomWalk(&rng, 50);
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    for (const double r : {0.05, 0.2, 0.5, 1.0}) {
      const double est = KpfLowerBoundEstimate(spec, q, d, r);
      EXPECT_GE(est, 0.0);
      EXPECT_LT(est, 1e200);
    }
  }
}

TEST(KpfBoundTest, BoundIsZeroWhenQueryEmbedded) {
  Rng rng(31);
  const Trajectory host = RandomWalk(&rng, 30);
  std::vector<Point> qpts(host.points().begin() + 5,
                          host.points().begin() + 12);
  const Trajectory query(std::move(qpts));
  // Every query point coincides with a data point => min sub = 0, and for
  // EDR/DTW/FD the bound must be exactly 0.
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Dtw(), query, host), 0.0);
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Edr(0.1), query, host), 0.0);
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Frechet(), query, host), 0.0);
}

TEST(KpfBoundTest, PointMinCostUsesDeletionWhenCheaper) {
  // ERP: a query point on the gap point has free deletion, so its minCost
  // term must be 0 even when all data points are far away.
  const Trajectory q{Point{0, 0}};
  const Trajectory d{Point{100, 100}, Point{200, 200}};
  const DistanceSpec spec = DistanceSpec::Erp(Point{0, 0});
  EXPECT_DOUBLE_EQ(KpfPointMinCost(spec, q, 0, d), 0.0);
}

class SimdGuard {
 public:
  explicit SimdGuard(bool on) : was_(simd::Enabled()) {
    simd::SetEnabled(on);
  }
  ~SimdGuard() { simd::SetEnabled(was_); }

 private:
  bool was_;
};

const WedCostFns& TestWedFns() {
  static const WedCostFns fns{
      [](const Point& a, const Point& b) {
        return 0.5 * EuclideanDistance(a, b);
      },
      [](const Point&) { return 1.0; },
      [](const Point& a) { return 0.1 * std::fabs(a.x) + 0.7; }};
  return fns;
}

std::vector<DistanceSpec> AllSpecs() {
  std::vector<DistanceSpec> specs = PaperGpsSpecs();
  specs.push_back(DistanceSpec::Wed(&TestWedFns()));
  return specs;
}

TEST(KpfColumnarBoundTest, ColumnsAndPointsMatchTheEstimateBitForBit) {
  // The columnar kernel takes the min of squared distances over SoA lanes
  // and one sqrt per key point; it must equal the min-of-sqrt estimate bit
  // for bit, with and without columns, with SIMD on and off, for lengths on
  // both sides of the lane width.
  Rng rng(4711);
  Dataset dataset("columns");
  for (int i = 0; i < 24; ++i) dataset.Add(RandomWalk(&rng, 1 + i * 3));
  for (const bool simd_on : {true, false}) {
    const SimdGuard guard(simd_on);
    KpfBoundPlan plan;
    for (const DistanceSpec& spec : AllSpecs()) {
      for (const double rate : {0.05, 0.5, 1.0}) {
        const Trajectory query = RandomWalk(&rng, 23);
        plan.Bind(spec, query.View(), rate, /*cell_size=*/0.5);
        for (int id = 0; id < dataset.size(); ++id) {
          const double want =
              KpfLowerBoundEstimate(spec, query.View(), dataset[id], rate);
          const double cols = plan.LowerBound(dataset[id], dataset.cols(id));
          const double aos = plan.LowerBound(dataset[id]);
          EXPECT_EQ(std::memcmp(&cols, &want, sizeof(double)), 0)
              << ToString(spec.kind) << " rate " << rate << " id " << id
              << ": " << cols << " vs " << want;
          EXPECT_EQ(std::memcmp(&aos, &want, sizeof(double)), 0)
              << ToString(spec.kind) << " rate " << rate << " id " << id;
        }
      }
    }
  }
}

TEST(KpfGridBoundTest, PreBoundNeverExceedsTheKpfBoundAtBlockEdges) {
  // Data points 0-4 ulps either side of every edge (and corner) of each
  // key point's 3x3 block, at coordinate magnitudes up to 1e6: the grid
  // classifies them with floor(x / cell), whose rounding the pre-bound's
  // margin must absorb.
  // A fixed grid of magnitudes and cells plus random ones: whether a point
  // a few ulps inside an edge rounds into the next cell depends on how
  // (ix + 2) * cell and x / cell happen to round, so many configurations
  // are needed to hit the cases an unmargined bound gets wrong.
  std::vector<std::pair<double, double>> configs;  // (base, cell)
  for (const double magnitude : {0.0, 0.3, 17.0, 1e3, 1e6}) {
    for (const double cell : {0.001, 0.37, 1.0, 13.0}) {
      configs.emplace_back(magnitude, cell);
      configs.emplace_back(-magnitude, cell);
    }
  }
  Rng rng(271828);
  for (int i = 0; i < 400; ++i) {
    const double magnitude = std::pow(10.0, rng.Uniform(-1, 6));
    const double sign = rng.UniformInt(0, 1) == 0 ? 1.0 : -1.0;
    configs.emplace_back(sign * magnitude, std::pow(10.0, rng.Uniform(-3, 1.5)));
  }
  int positive = 0;
  for (const auto& [base, cell] : configs) {
    // q0 first, then eight points three cells apart around it: their
    // blocks tile the 9x9 cells around q0, so every data point below
    // is a GBP candidate at mu = 0.
    const Point q0{base + 0.41 * cell, base - 0.73 * cell};
    std::vector<Point> query_points = {q0};
    for (const double dx : {-3.0, 0.0, 3.0}) {
      for (const double dy : {-3.0, 0.0, 3.0}) {
        if (dx != 0 || dy != 0) {
          query_points.push_back(
              Point{q0.x + dx * cell, q0.y + dy * cell});
        }
      }
    }
    const Trajectory query(std::move(query_points));
    Dataset dataset("edges");
    const double ix = std::floor(q0.x / cell);
    const double iy = std::floor(q0.y / cell);
    const std::vector<double> xs = {(ix - 1) * cell, (ix + 2) * cell};
    const std::vector<double> ys = {(iy - 1) * cell, (iy + 2) * cell};
    auto nudge = [](double v, int ulps) {
      const double toward = ulps < 0 ? -std::numeric_limits<double>::max()
                                     : std::numeric_limits<double>::max();
      for (int u = 0; u < std::abs(ulps); ++u) {
        v = std::nextafter(v, toward);
      }
      return v;
    };
    for (int ulps = -4; ulps <= 4; ++ulps) {
      for (const double x : xs) {
        dataset.Add(Trajectory{Point{nudge(x, ulps), q0.y}});
        for (const double y : ys) {
          dataset.Add(Trajectory{Point{nudge(x, ulps), nudge(y, ulps)}});
        }
      }
      for (const double y : ys) {
        dataset.Add(Trajectory{Point{q0.x, nudge(y, ulps)}});
      }
    }
    const GridIndex grid(dataset, cell);
    for (const DistanceSpec& spec :
         {DistanceSpec::Dtw(), DistanceSpec::Frechet(),
          DistanceSpec::Erp(Point{base, base}),
          DistanceSpec::Edr(0.9 * cell), DistanceSpec::Edr(1.1 * cell)}) {
      // Rate 0.05 samples q0 alone, so a data point's bound is q0's term
      // by itself (no other key point's slack can hide an excess).
      for (const double rate : {0.05, 1.0}) {
        KpfBoundPlan plan;
        plan.Bind(spec, query.View(), rate, cell);
        ASSERT_FALSE(plan.mask_points().empty());
        std::vector<int> ids;
        std::vector<uint64_t> masks;
        grid.Select(query.View(), 0.0, CandidateOrder::kById,
                    plan.mask_points(), &ids, &masks);
        // Every data point lies in the tiled area, so all are
        // candidates.
        ASSERT_EQ(static_cast<int>(ids.size()), dataset.size());
        for (size_t c = 0; c < ids.size(); ++c) {
          const double pre = plan.GridBound(masks[c]);
          const double kpf =
              plan.LowerBound(dataset[ids[c]], dataset.cols(ids[c]));
          EXPECT_LE(pre, kpf)
              << ToString(spec.kind) << " magnitude " << base << " cell "
              << cell << " point " << dataset[ids[c]][0].x << ","
              << dataset[ids[c]][0].y;
          positive += pre > 0;
        }
      }
    }
  }
  // The bound is not vacuous: points just past the block edges get one.
  EXPECT_GT(positive, 0);
}

TEST(KpfGridBoundTest, GenericWedUngriddedAndLongQueriesHaveNoPreBound) {
  Rng rng(5);
  const Trajectory query = RandomWalk(&rng, 10);
  KpfBoundPlan plan;
  // Masks come off one 64-point counting block, so longer queries keep the
  // plain bound.
  const Trajectory long_query = RandomWalk(&rng, 65);
  plan.Bind(DistanceSpec::Dtw(), long_query.View(), 0.05, 1.0);
  EXPECT_TRUE(plan.mask_points().empty());
  const Trajectory block_query = RandomWalk(&rng, 64);
  plan.Bind(DistanceSpec::Dtw(), block_query.View(), 0.05, 1.0);
  EXPECT_FALSE(plan.mask_points().empty());
  plan.Bind(DistanceSpec::Wed(&TestWedFns()), query.View(), 0.5, 1.0);
  EXPECT_TRUE(plan.mask_points().empty());
  plan.Bind(DistanceSpec::Dtw(), query.View(), 0.5, /*cell_size=*/0);
  EXPECT_TRUE(plan.mask_points().empty());
  plan.Bind(DistanceSpec::Dtw(), query.View(), 0.5, 1.0);
  EXPECT_EQ(plan.mask_points().size(), 5u);
}

}  // namespace
}  // namespace trajsearch
