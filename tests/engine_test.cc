#include "search/engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "gen/taxi.h"
#include "gen/workload.h"
#include "search/cma.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

Dataset WalkDataset(int count, int mean_len, uint64_t seed) {
  Dataset dataset("engine-test");
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataset.Add(RandomWalk(
        &rng, mean_len + static_cast<int>(rng.UniformInt(-5, 5))));
  }
  return dataset;
}

/// Ground truth: exhaustive engine (no pruning, CMA on every trajectory).
std::vector<EngineHit> ExhaustiveTopK(const Dataset& dataset,
                                      const DistanceSpec& spec,
                                      TrajectoryView query, int k) {
  std::vector<EngineHit> all;
  for (int id = 0; id < dataset.size(); ++id) {
    all.push_back(EngineHit{id, CmaSearch(spec, query, dataset[id])});
  }
  std::sort(all.begin(), all.end(), [](const EngineHit& a, const EngineHit& b) {
    return a.result.distance < b.result.distance;
  });
  all.resize(static_cast<size_t>(std::min<size_t>(all.size(),
                                                  static_cast<size_t>(k))));
  return all;
}

TEST(EngineTest, NoPruningMatchesExhaustiveSearch) {
  const Dataset dataset = WalkDataset(25, 20, 41);
  Rng rng(4);
  const Trajectory query = RandomWalk(&rng, 6);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    EngineOptions options;
    options.spec = spec;
    options.use_gbp = false;
    options.use_kpf = false;
    const SearchEngine engine(&dataset, options);
    QueryStats stats;
    const std::vector<EngineHit> hits = engine.Query(query, &stats);
    const std::vector<EngineHit> truth =
        ExhaustiveTopK(dataset, spec, query, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].trajectory_id, truth[0].trajectory_id)
        << ToString(spec.kind);
    EXPECT_NEAR(hits[0].result.distance, truth[0].result.distance, 1e-9);
    EXPECT_EQ(stats.searched, dataset.size());
    EXPECT_EQ(stats.pruned_by_bound, 0);
  }
}

TEST(EngineTest, KpfWithFullRateNeverLosesTheOptimum) {
  const Dataset dataset = WalkDataset(30, 18, 43);
  Rng rng(6);
  const Trajectory query = RandomWalk(&rng, 5);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    EngineOptions options;
    options.spec = spec;
    options.use_gbp = false;
    options.use_kpf = true;
    options.sample_rate = 1.0;  // exact Theorem B.1 bound
    const SearchEngine engine(&dataset, options);
    QueryStats stats;
    const std::vector<EngineHit> hits = engine.Query(query, &stats);
    const std::vector<EngineHit> truth =
        ExhaustiveTopK(dataset, spec, query, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_NEAR(hits[0].result.distance, truth[0].result.distance, 1e-9)
        << ToString(spec.kind);
  }
}

TEST(EngineTest, KpfPrunesSomethingOnSpreadOutData) {
  // Trajectories scattered across distant regions: once a good hit exists,
  // far trajectories must be pruned by the bound.
  Dataset dataset("spread");
  Rng rng(10);
  for (int i = 0; i < 20; ++i) {
    Trajectory t = RandomWalk(&rng, 15);
    for (Point& p : t.points()) {
      p.x += i * 1000.0;  // far-apart clusters
    }
    dataset.Add(std::move(t));
  }
  std::vector<Point> qpts(dataset[0].points().begin() + 2,
                          dataset[0].points().begin() + 8);
  const Trajectory query(std::move(qpts));
  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = false;
  options.use_kpf = true;
  options.sample_rate = 1.0;
  const SearchEngine engine(&dataset, options);
  QueryStats stats;
  const std::vector<EngineHit> hits = engine.Query(query, &stats);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].trajectory_id, 0);
  EXPECT_NEAR(hits[0].result.distance, 0.0, 1e-9);
  EXPECT_GT(stats.pruned_by_bound, 0);
  EXPECT_LT(stats.searched, dataset.size());
}

TEST(EngineTest, GbpReducesCandidatesWithoutLosingEmbeddedOptimum) {
  Dataset dataset("gbp");
  Rng rng(12);
  for (int i = 0; i < 30; ++i) {
    Trajectory t = RandomWalk(&rng, 20);
    for (Point& p : t.points()) p.x += (i % 6) * 500.0;
    dataset.Add(std::move(t));
  }
  std::vector<Point> qpts(dataset[7].points().begin() + 3,
                          dataset[7].points().begin() + 11);
  const Trajectory query(std::move(qpts));
  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = true;
  options.use_kpf = false;
  options.mu = 0.4;
  const SearchEngine engine(&dataset, options);
  QueryStats stats;
  const std::vector<EngineHit> hits = engine.Query(query, &stats);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].trajectory_id, 7);
  EXPECT_NEAR(hits[0].result.distance, 0.0, 1e-9);
  EXPECT_LT(stats.candidates_after_gbp, dataset.size());
}

TEST(EngineTest, TopKReturnsSortedDistinctTrajectories) {
  const Dataset dataset = WalkDataset(40, 15, 47);
  Rng rng(14);
  const Trajectory query = RandomWalk(&rng, 5);
  EngineOptions options;
  options.spec = DistanceSpec::Edr(0.8);
  options.use_gbp = false;
  options.use_kpf = false;
  options.top_k = 5;
  const SearchEngine engine(&dataset, options);
  const std::vector<EngineHit> hits = engine.Query(query);
  ASSERT_EQ(hits.size(), 5u);
  const std::vector<EngineHit> truth = ExhaustiveTopK(
      dataset, options.spec, query, 5);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_NEAR(hits[i].result.distance, truth[i].result.distance, 1e-9);
    if (i > 0) {
      EXPECT_GE(hits[i].result.distance, hits[i - 1].result.distance);
      EXPECT_NE(hits[i].trajectory_id, hits[i - 1].trajectory_id);
    }
  }
}

TEST(EngineTest, TopKWithKpfKeepsTheSameResultSet) {
  const Dataset dataset = WalkDataset(40, 15, 53);
  Rng rng(16);
  const Trajectory query = RandomWalk(&rng, 5);
  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = false;
  options.use_kpf = true;
  options.sample_rate = 1.0;
  options.top_k = 3;
  const SearchEngine engine(&dataset, options);
  const std::vector<EngineHit> hits = engine.Query(query);
  const std::vector<EngineHit> truth =
      ExhaustiveTopK(dataset, options.spec, query, 3);
  ASSERT_EQ(hits.size(), truth.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_NEAR(hits[i].result.distance, truth[i].result.distance, 1e-9);
  }
}

TEST(EngineTest, OsfModeAlsoPreservesTheOptimum) {
  const Dataset dataset = WalkDataset(25, 16, 59);
  Rng rng(18);
  const Trajectory query = RandomWalk(&rng, 5);
  EngineOptions options;
  options.spec = DistanceSpec::Erp(dataset.Bounds().Center());
  options.use_gbp = false;
  options.use_kpf = false;
  options.use_osf = true;
  const SearchEngine engine(&dataset, options);
  const std::vector<EngineHit> hits = engine.Query(query);
  const std::vector<EngineHit> truth =
      ExhaustiveTopK(dataset, options.spec, query, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NEAR(hits[0].result.distance, truth[0].result.distance, 1e-9);
}

TEST(EngineTest, MultiThreadedSearchMatchesSerialHitForHit) {
  // The header claims "results are identical to the serial engine" for
  // threads > 1; verify hit-for-hit across distances, K values and pruning
  // configurations (KPF at rate 1.0 is a sound bound, so pruning cannot
  // change the result set either way).
  const Dataset dataset = WalkDataset(60, 18, 67);
  Rng rng(22);
  const Trajectory query = RandomWalk(&rng, 6);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    for (const int top_k : {1, 5}) {
      for (const bool use_kpf : {false, true}) {
        EngineOptions serial_options;
        serial_options.spec = spec;
        serial_options.use_gbp = false;
        serial_options.use_kpf = use_kpf;
        serial_options.sample_rate = 1.0;
        serial_options.top_k = top_k;
        EngineOptions threaded_options = serial_options;
        threaded_options.threads = 4;

        const SearchEngine serial(&dataset, serial_options);
        const SearchEngine threaded(&dataset, threaded_options);
        const std::vector<EngineHit> expected = serial.Query(query);
        const std::vector<EngineHit> actual = threaded.Query(query);
        ASSERT_EQ(actual.size(), expected.size())
            << ToString(spec.kind) << " k=" << top_k << " kpf=" << use_kpf;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].trajectory_id, expected[i].trajectory_id)
              << ToString(spec.kind) << " rank " << i;
          EXPECT_EQ(actual[i].result.distance, expected[i].result.distance)
              << ToString(spec.kind) << " rank " << i;
          EXPECT_EQ(actual[i].result.range, expected[i].result.range)
              << ToString(spec.kind) << " rank " << i;
        }
      }
    }
  }
}

TEST(EngineTest, StatsTimingBreakdownIsPopulated) {
  const Dataset dataset = WalkDataset(15, 30, 61);
  Rng rng(20);
  const Trajectory query = RandomWalk(&rng, 8);
  // Every stage time has one definition whatever the worker count: prune
  // is exactly candidate generation plus bound checks, and the per-pair
  // time nests inside the search stage's wall-clock with one worker.
  for (const int threads : {1, 3}) {
    EngineOptions options;
    options.spec = DistanceSpec::Dtw();
    options.use_gbp = false;  // every trajectory is a candidate
    options.threads = threads;
    const SearchEngine engine(&dataset, options);
    QueryStats stats;
    engine.Query(query, &stats);
    EXPECT_EQ(stats.searched + stats.pruned_by_bound,
              stats.candidates_after_gbp)
        << threads;
    ASSERT_GT(stats.searched, 0) << threads;
    EXPECT_GE(stats.gbp_seconds, 0.0) << threads;
    EXPECT_GE(stats.bound_seconds, 0.0) << threads;
    EXPECT_EQ(stats.prune_seconds, stats.gbp_seconds + stats.bound_seconds)
        << threads;
    EXPECT_GT(stats.pair_search_seconds, 0.0) << threads;
    EXPECT_GT(stats.search_seconds, 0.0) << threads;
    if (threads == 1) {
      EXPECT_GE(stats.search_seconds, stats.pair_search_seconds);
    }
  }
}

TEST(EngineTest, ConstructorDoesNotMutateCallerOptions) {
  const Dataset dataset = WalkDataset(10, 20, 63);
  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = true;
  options.cell_size = 0;  // ask the engine to derive one
  const SearchEngine engine(&dataset, options);
  // options() echoes the caller's value; the derived cell side is exposed
  // through the grid's stats instead.
  EXPECT_EQ(engine.options().cell_size, 0.0);
  ASSERT_NE(engine.grid(), nullptr);
  EXPECT_GT(engine.grid()->stats().cell_size, 0.0);
  EXPECT_EQ(engine.grid()->stats().cell_size, engine.grid()->cell_size());
  EXPECT_EQ(engine.grid()->stats().cell_size,
            DefaultCellSize(dataset.Bounds()));
}

TEST(EngineTest, EarlyAbandonToggleDoesNotChangeResults) {
  const Dataset dataset = WalkDataset(40, 18, 71);
  Rng rng(24);
  const Trajectory query = RandomWalk(&rng, 6);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    for (const bool use_kpf : {false, true}) {
      EngineOptions with;
      with.spec = spec;
      with.use_gbp = false;
      with.use_kpf = use_kpf;
      with.sample_rate = 1.0;
      with.top_k = 4;
      with.use_early_abandon = true;
      EngineOptions without = with;
      without.use_early_abandon = false;
      const SearchEngine fast(&dataset, with);
      const SearchEngine full(&dataset, without);
      const std::vector<EngineHit> a = fast.Query(query);
      const std::vector<EngineHit> b = full.Query(query);
      ASSERT_EQ(a.size(), b.size()) << ToString(spec.kind);
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].trajectory_id, b[i].trajectory_id)
            << ToString(spec.kind) << " rank " << i;
        EXPECT_EQ(a[i].result.distance, b[i].result.distance)
            << ToString(spec.kind) << " rank " << i;
        EXPECT_EQ(a[i].result.range, b[i].result.range)
            << ToString(spec.kind) << " rank " << i;
      }
    }
  }
}

TEST(EngineTest, NonFiniteQueryGetsNoCandidatesAndNoHits) {
  // A NaN or infinite query coordinate has no grid cell and no distance:
  // the pipeline checks once per query and returns an empty result, with
  // GBP on or off and with the bounds on or off.
  const Dataset dataset = WalkDataset(40, 15, 404);
  Rng rng(405);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (const bool gbp : {true, false}) {
      for (const bool kpf : {true, false}) {
        EngineOptions options;
        options.spec = DistanceSpec::Dtw();
        options.use_gbp = gbp;
        options.use_kpf = kpf;
        options.mu = 0.1;
        options.top_k = 3;
        const SearchEngine engine(&dataset, options);
        Trajectory query = RandomWalk(&rng, 8);
        ASSERT_FALSE(engine.Query(query.View()).empty());
        std::vector<Point> points(query.points().begin(),
                                  query.points().end());
        points[3].y = bad;
        const Trajectory broken(std::move(points));
        QueryStats stats;
        EXPECT_TRUE(engine.Query(broken.View(), &stats).empty())
            << bad << " gbp " << gbp << " kpf " << kpf;
        EXPECT_EQ(stats.candidates_after_gbp, 0);
        EXPECT_EQ(stats.searched, 0);
      }
    }
  }
}

}  // namespace
}  // namespace trajsearch
