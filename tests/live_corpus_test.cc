// Live-corpus subsystem tests: generational storage invariants (stable
// dense ids, generation pinning, compaction swaps), delta-grid parity with
// the CSR index, the hit-for-hit equivalence gate (a live corpus after
// appends and after compaction answers exactly like a fresh-built corpus of
// the same trajectories, across the full algorithm x distance matrix with
// threads > 1 and shards > 1), and a concurrent ingest/read/compact stress
// test run under TSan in CI.

#include "core/live_dataset.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/fingerprint.h"
#include "io/snapshot.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "search/topk.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

void ExpectSamePoints(TrajectoryView a, TrajectoryView b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

void ExpectSameHits(const std::vector<EngineHit>& a,
                    const std::vector<EngineHit>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trajectory_id, b[i].trajectory_id)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.distance, b[i].result.distance)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.range, b[i].result.range)
        << context << " rank " << i;
  }
}

// ---------------------------------------------------------------------------
// LiveDataset
// ---------------------------------------------------------------------------

TEST(LiveDatasetTest, AppendAssignsStableDenseIds) {
  Rng rng(11);
  Dataset base("live");
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 8; ++i) trajs.push_back(RandomWalk(&rng, 10 + i));
  for (int i = 0; i < 5; ++i) base.Add(trajs[static_cast<size_t>(i)]);

  LiveDataset live(std::move(base));
  EXPECT_EQ(live.Append(trajs[5]), 5);
  EXPECT_EQ(live.AppendBatch({trajs[6].View(), trajs[7].View()}),
            (std::vector<int>{6, 7}));

  const CorpusView view = live.View();
  EXPECT_EQ(view.size(), 8);
  EXPECT_EQ(view.base_size(), 5);
  EXPECT_EQ(view.delta_size(), 3);
  for (int id = 0; id < 8; ++id) {
    EXPECT_EQ(view[id].id(), id);
    ExpectSamePoints(view[id].View(), trajs[static_cast<size_t>(id)].View());
  }
}

TEST(LiveDatasetTest, PinnedViewIgnoresLaterAppendsAndCompaction) {
  Rng rng(13);
  Dataset base("pin");
  for (int i = 0; i < 4; ++i) base.Add(RandomWalk(&rng, 12));
  LiveDataset live(std::move(base));
  const Trajectory extra = RandomWalk(&rng, 9);
  live.Append(extra);

  const CorpusView pinned = live.View();
  const uint64_t pinned_fp = Fingerprint(pinned[4].View());
  ASSERT_EQ(pinned.size(), 5);

  // Later appends are invisible to the pinned view.
  live.Append(RandomWalk(&rng, 7));
  EXPECT_EQ(pinned.size(), 5);
  EXPECT_EQ(live.View().size(), 6);

  // A compaction swap does not disturb the pinned view either — its storage
  // stays alive and untouched.
  const CorpusView before = live.View();
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(before));
  live.AdoptBase(merged, before.delta_size());
  EXPECT_EQ(pinned.size(), 5);
  EXPECT_EQ(Fingerprint(pinned[4].View()), pinned_fp);
  EXPECT_EQ(pinned.delta_size(), 1);

  const CorpusView after = live.View();
  EXPECT_EQ(after.base_size(), 6);
  EXPECT_EQ(after.delta_size(), 0);
  EXPECT_EQ(after.base_generation(), 1u);
  // Content unchanged: ingest stamp identical, ids identical.
  EXPECT_EQ(after.ingest_seq(), before.ingest_seq());
  for (int id = 0; id < 6; ++id) {
    ExpectSamePoints(after[id].View(), before[id].View());
  }
}

TEST(LiveDatasetTest, AdoptBaseKeepsAppendsThatRacedTheCompactor) {
  Rng rng(17);
  Dataset base("race");
  for (int i = 0; i < 3; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  live.Append(RandomWalk(&rng, 8));  // id 3: compacted below

  // Compactor pins its input...
  const CorpusView pinned = live.View();
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(pinned));
  // ...while two more appends land (ids 4, 5).
  const Trajectory late_a = RandomWalk(&rng, 6);
  const Trajectory late_b = RandomWalk(&rng, 7);
  EXPECT_EQ(live.Append(late_a), 4);
  EXPECT_EQ(live.Append(late_b), 5);

  live.AdoptBase(merged, pinned.delta_size());
  const CorpusView now = live.View();
  EXPECT_EQ(now.base_size(), 4);
  EXPECT_EQ(now.delta_size(), 2);
  EXPECT_EQ(now.size(), 6);
  // The racing appends kept their ids and content.
  ExpectSamePoints(now[4].View(), late_a.View());
  ExpectSamePoints(now[5].View(), late_b.View());
}

TEST(LiveDatasetTest, MergeFlattensWithExactReserves) {
  Rng rng(19);
  Dataset base("merge");
  for (int i = 0; i < 3; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  live.Append(TrajectoryView{});  // empty trajectories are legal
  live.Append(RandomWalk(&rng, 5));

  const CorpusView view = live.View();
  const Dataset merged = LiveDataset::Merge(view);
  ASSERT_EQ(merged.size(), view.size());
  for (int id = 0; id < view.size(); ++id) {
    ExpectSamePoints(merged[id].View(), view[id].View());
  }
  const DatasetStats stats = merged.Stats();
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
}

// ---------------------------------------------------------------------------
// DeltaGridIndex parity with the CSR GridIndex
// ---------------------------------------------------------------------------

TEST(DeltaGridIndexTest, MatchesCsrGridCountsAndCandidates) {
  Rng rng(23);
  Dataset delta_ds("delta");
  DeltaGridIndex delta_grid(0.8);
  for (int i = 0; i < 30; ++i) {
    const Trajectory t = RandomWalk(&rng, 20 + i % 7);
    delta_ds.Add(t);
    delta_grid.Add(t);
  }
  const GridIndex csr(delta_ds, 0.8);
  ASSERT_EQ(delta_grid.size(), delta_ds.size());

  for (int qi = 0; qi < 12; ++qi) {
    const Trajectory query = RandomWalk(&rng, 6 + qi % 5);
    // Close counts must agree entry for entry (same cell geometry, same
    // per-query-point dedupe), so the mu filter and the ordering agree too.
    std::vector<std::pair<int, int>> delta_counts;
    delta_grid.CloseCounts(query, &delta_counts);
    EXPECT_EQ(csr.CloseCounts(query), delta_counts) << "query " << qi;
    for (const double mu : {0.05, 0.3, 0.8}) {
      std::vector<int> csr_ids, delta_ids;
      csr.Candidates(query, mu, &csr_ids);
      delta_grid.Candidates(query, mu, &delta_ids);
      EXPECT_EQ(csr_ids, delta_ids) << "query " << qi << " mu " << mu;
      csr.OrderedCandidates(query, mu, &csr_ids);
      delta_grid.OrderedCandidates(query, mu, &delta_ids);
      EXPECT_EQ(csr_ids, delta_ids) << "query " << qi << " mu " << mu;
    }
  }
}

TEST(DeltaGridIndexTest, CopyIsIndependentOfLaterAdds) {
  Rng rng(29);
  DeltaGridIndex master(1.0);
  master.Add(RandomWalk(&rng, 15));
  const DeltaGridIndex snapshot = master;  // deep copy, not a view
  master.Add(RandomWalk(&rng, 15));
  EXPECT_EQ(snapshot.size(), 1);
  EXPECT_EQ(master.size(), 2);
  const Trajectory query = RandomWalk(&rng, 5);
  std::vector<std::pair<int, int>> counts;
  snapshot.CloseCounts(query, &counts);
  for (const auto& [id, count] : counts) EXPECT_LT(id, 1);
}

// ---------------------------------------------------------------------------
// Equivalence gate: live == fresh-built, full matrix
// ---------------------------------------------------------------------------

/// After appends (pre-compaction) and after a forced compaction, a live
/// service must return results hit-for-hit identical to a service built
/// fresh over the same trajectories — for every algorithm x distance combo,
/// with GBP on and off, engine threads > 1 and shards > 1, under a sound
/// bound. Both
/// services run with the same explicit cell size (a fresh build over the
/// grown corpus would otherwise derive a different grid from the extended
/// bounding box, changing the GBP candidate set for live and fresh alike).
TEST(LiveCorpusEquivalenceGate, FullMatrixMatchesFreshBuild) {
  Rng rng(515);
  std::vector<Trajectory> all;
  for (int i = 0; i < 54; ++i) all.push_back(RandomWalk(&rng, 14 + i % 9));
  const int kBase = 36;

  Dataset full_corpus("fresh");
  full_corpus.Reserve(all.size());
  for (const Trajectory& t : all) full_corpus.Add(t);
  const double cell = DefaultCellSize(full_corpus.Bounds());

  std::vector<Trajectory> query_storage;
  for (int i = 0; i < 3; ++i) query_storage.push_back(RandomWalk(&rng, 7));
  // A slice of an *appended* trajectory: its best match must be the delta
  // trajectory itself (rank 0, distance 0) in both services.
  query_storage.push_back(Trajectory(all[40].Slice(Subrange{1, 9})));
  std::vector<TrajectoryView> queries;
  for (const Trajectory& q : query_storage) queries.push_back(q.View());

  const Algorithm algorithms[] = {
      Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
      Algorithm::kGreedyBacktracking, Algorithm::kPos,
      Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};

  // GBP off runs the delta's identity scan and its bound ordering instead
  // of the delta grid.
  for (const bool use_gbp : {true, false}) {
    for (const Algorithm algorithm : algorithms) {
      for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
        if (!Supports(algorithm, spec.kind)) continue;
        const std::string context = std::string(ToString(algorithm)) + "/" +
                                    std::string(ToString(spec.kind)) +
                                    (use_gbp ? " gbp" : " no-gbp");
        EngineOptions engine;
        engine.spec = spec;
        engine.algorithm = algorithm;
        engine.use_gbp = use_gbp;
        engine.mu = 0.1;
        engine.cell_size = cell;
        engine.use_kpf = true;
        engine.sample_rate = 1.0;  // sound bound: results must be exact
        engine.top_k = 4;
        engine.threads = 2;

        ServiceOptions options;
        options.engine = engine;
        options.shards = 3;
        options.cache_capacity = 0;
        options.compact_delta_trajectories = 0;  // compaction forced below

        Dataset base("live");
        base.Reserve(static_cast<size_t>(kBase));
        for (int i = 0; i < kBase; ++i) base.Add(all[static_cast<size_t>(i)]);
        QueryService live(std::move(base), options);
        std::vector<TrajectoryView> appended;
        for (size_t i = kBase; i < all.size(); ++i) {
          appended.push_back(all[i].View());
        }
        live.AppendBatch(appended);

        QueryService fresh(full_corpus, options);
        ASSERT_EQ(live.corpus_size(), fresh.corpus_size());

        const auto expected = fresh.SubmitBatch(queries);
        const auto before_compact = live.SubmitBatch(queries);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectSameHits(expected[qi], before_compact[qi],
                         context + " pre-compaction query " +
                             std::to_string(qi));
        }
        // Exact algorithms must find the appended source of the delta-slice
        // query at distance 0 (the approximate scans may settle for more).
        ASSERT_FALSE(before_compact.back().empty()) << context;
        if (IsExact(algorithm, spec.kind)) {
          EXPECT_EQ(before_compact.back()[0].result.distance, 0.0) << context;
        }

        ASSERT_TRUE(live.Compact()) << context;
        const CorpusShape shape = live.Shape();
        EXPECT_EQ(shape.delta_trajectories, 0) << context;
        EXPECT_EQ(shape.base_trajectories, static_cast<int>(all.size()))
            << context;
        EXPECT_EQ(shape.base_generation, 1u) << context;

        const auto after_compact = live.SubmitBatch(queries);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectSameHits(expected[qi], after_compact[qi],
                         context + " post-compaction query " +
                             std::to_string(qi));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot v3 replay reproduces the generation
// ---------------------------------------------------------------------------

TEST(LiveCorpusSnapshotTest, SaveAndReplayReproducesResultsAndIds) {
  Rng rng(616);
  Dataset base("snap-live");
  for (int i = 0; i < 20; ++i) base.Add(RandomWalk(&rng, 12));

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 3;
  options.shards = 2;
  options.compact_delta_trajectories = 0;
  QueryService live(std::move(base), options);
  std::vector<Trajectory> extra;
  for (int i = 0; i < 6; ++i) extra.push_back(RandomWalk(&rng, 10));
  std::vector<TrajectoryView> extra_views;
  for (const Trajectory& t : extra) extra_views.push_back(t.View());
  live.AppendBatch(extra_views);

  const std::string path =
      ::testing::TempDir() + "/live_replay.snap";
  ASSERT_TRUE(live.SaveSnapshot(path).ok());

  // The saved file is a v3 delta snapshot whose journal is the delta.
  const Result<SnapshotInfo> info = ProbeSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, kSnapshotVersionLive);
  EXPECT_EQ(info.value().base_trajectories, 20u);
  EXPECT_EQ(info.value().journal_trajectories, 6u);

  // Replaying the journal through AppendBatch reproduces the generation:
  // same ids, same answers.
  Result<LiveSnapshot> loaded = ReadLiveSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  LiveSnapshot snapshot = loaded.MoveValue();
  QueryService replayed(std::move(snapshot.base), options);
  std::vector<TrajectoryView> journal_views;
  for (const Trajectory& t : snapshot.journal) {
    journal_views.push_back(t.View());
  }
  const std::vector<int> ids = replayed.AppendBatch(journal_views);
  ASSERT_EQ(ids.size(), 6u);
  EXPECT_EQ(ids.front(), 20);

  const Trajectory query = RandomWalk(&rng, 6);
  ExpectSameHits(live.Submit(query), replayed.Submit(query), "replayed");
  for (int id = 0; id < live.corpus_size(); ++id) {
    ExpectSamePoints(live.trajectory(id).View(),
                     replayed.trajectory(id).View());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrent ingest / read / compact (TSan coverage)
// ---------------------------------------------------------------------------

/// Readers keep querying while a writer appends and compactions churn (a
/// tiny threshold forces many background swaps). Every result must be
/// internally consistent — best-first order, ids inside the corpus the
/// reader could have pinned, finite distances — and the final corpus must
/// answer exactly like a fresh build of the same trajectories.
TEST(LiveCorpusStressTest, ConcurrentReadersDuringIngestAndCompaction) {
  Rng rng(717);
  std::vector<Trajectory> initial;
  for (int i = 0; i < 24; ++i) initial.push_back(RandomWalk(&rng, 12));
  std::vector<Trajectory> feed;
  for (int i = 0; i < 48; ++i) feed.push_back(RandomWalk(&rng, 10));

  Dataset base("stress");
  for (const Trajectory& t : initial) base.Add(t);
  const double cell = DefaultCellSize(base.Bounds());

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.cell_size = cell;
  options.engine.mu = 0.1;
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 3;
  options.engine.threads = 2;
  options.shards = 2;
  options.worker_threads = 3;
  options.cache_capacity = 32;
  options.compact_delta_trajectories = 8;  // churn: many background swaps
  QueryService service(std::move(base), options);

  std::vector<Trajectory> query_storage;
  for (int i = 0; i < 4; ++i) query_storage.push_back(RandomWalk(&rng, 6));

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  auto reader = [&](int seed) {
    for (int round = 0; !writer_done.load(std::memory_order_acquire) ||
                        round < 10;
         ++round) {
      const Trajectory& q =
          query_storage[static_cast<size_t>((seed + round) % 4)];
      const int corpus_before = service.corpus_size();
      const std::vector<EngineHit> hits = service.Submit(q);
      const int corpus_after = service.corpus_size();
      for (size_t i = 0; i < hits.size(); ++i) {
        if (hits[i].trajectory_id < 0 ||
            hits[i].trajectory_id >= corpus_after ||
            !std::isfinite(hits[i].result.distance) ||
            (i > 0 && BetterHit(hits[i], hits[i - 1]))) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (static_cast<int>(hits.size()) >
          std::min(options.engine.top_k, corpus_after)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      (void)corpus_before;
      if (round > 200) break;  // safety net
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader, r);
  std::thread writer([&]() {
    for (size_t i = 0; i < feed.size(); ++i) {
      if (i % 3 == 0 && i + 2 < feed.size()) {
        service.AppendBatch({feed[i].View(), feed[i + 1].View(),
                             feed[i + 2].View()});
        i += 2;
      } else {
        service.Append(feed[i]);
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesce: force a final compaction (racing background ones are fine;
  // Compact() serializes) and gate the end state against a fresh build.
  service.Compact();
  EXPECT_EQ(service.corpus_size(),
            static_cast<int>(initial.size() + feed.size()));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.appends, feed.size());
  EXPECT_GE(stats.compactions, 1u);

  Dataset flat("stress-fresh");
  for (const Trajectory& t : initial) flat.Add(t);
  for (const Trajectory& t : feed) flat.Add(t);
  QueryService fresh(std::move(flat), options);
  for (const Trajectory& q : query_storage) {
    ExpectSameHits(fresh.Submit(q), service.Submit(q), "post-stress");
  }
}

/// Ingest counters and generation stamps surface through Stats()/Shape().
TEST(LiveCorpusStatsTest, IngestAndCompactionCountersTrack) {
  Rng rng(818);
  Dataset base("counters");
  for (int i = 0; i < 10; ++i) base.Add(RandomWalk(&rng, 10));
  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.compact_delta_trajectories = 0;
  QueryService service(std::move(base), options);

  const Trajectory a = RandomWalk(&rng, 8);
  const Trajectory b = RandomWalk(&rng, 9);
  service.Append(a);
  service.AppendBatch({b.View(), a.View()});

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.append_batches, 2u);
  EXPECT_EQ(stats.appended_points, static_cast<uint64_t>(
                                       a.size() * 2 + b.size()));
  EXPECT_EQ(stats.compactions, 0u);

  CorpusShape shape = service.Shape();
  EXPECT_EQ(shape.generation, 2u);
  EXPECT_EQ(shape.ingest_seq, 3u);
  EXPECT_EQ(shape.delta_trajectories, 3);
  EXPECT_EQ(shape.base_trajectories, 10);

  ASSERT_TRUE(service.Compact());
  EXPECT_FALSE(service.Compact());  // delta already empty
  stats = service.Stats();
  EXPECT_EQ(stats.compactions, 1u);
  shape = service.Shape();
  EXPECT_EQ(shape.base_trajectories, 13);
  EXPECT_EQ(shape.delta_trajectories, 0);
  EXPECT_EQ(shape.ingest_seq, 3u);  // compaction is content-neutral
  EXPECT_EQ(shape.base_generation, 1u);
}

}  // namespace
}  // namespace trajsearch
