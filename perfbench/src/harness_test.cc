// Self-test of the benchmark's own machinery: the layer replay equals the
// engines it mirrors, the hit checker catches each defect class it exists
// for, and tail percentiles are withheld below ten samples beyond them.
// Run with `python3 perfbench/run.py --selftest`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/live_dataset.h"
#include "gen/taxi.h"
#include "harness.h"
#include "search/delta_engine.h"
#include "search/engine.h"
#include "search/topk.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool SameHits(const std::vector<EngineHit>& a,
              const std::vector<EngineHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trajectory_id != b[i].trajectory_id ||
        !(a[i].result == b[i].result)) {
      return false;
    }
  }
  return true;
}

/// The replay's hits and funnel equal SearchEngine::Query's, for both
/// distances the workloads serve.
void TestReplayMatchesEngine() {
  for (const char* name : {"porto_batch", "xian_single"}) {
    const Workload& w = *FindWorkload(name);
    const Dataset corpus = trajsearch::GenerateTaxiDataset(
        CorpusProfile(w, StreamSeed(7, kCorpusStream), 400));
    const EngineOptions options = ServingEngineOptions(w);
    const trajsearch::SearchEngine engine(corpus, options);
    const QuerySet queries = SampleWindows(corpus, 24, w.query_min,
                                           w.query_max, 11, true);
    SpanLog spans(true);
    LayerReplay replay(options, &spans);
    trajsearch::QueryStats total;
    int answered = 0;
    for (size_t i = 0; i < queries.queries.size(); ++i) {
      trajsearch::SharedTopK topk(options.top_k);
      replay.BasePart(*engine.grid(), DatasetView(corpus), queries.queries[i],
                      queries.excluded[i], 0, &topk, i + 1);
      const std::vector<EngineHit> replayed = replay.Finish(&topk, i + 1);
      trajsearch::QueryStats stats;
      const std::vector<EngineHit> expected =
          engine.Query(queries.queries[i], &stats, queries.excluded[i]);
      Expect(SameHits(replayed, expected),
             std::string(name) + ": replay hits equal SearchEngine::Query");
      answered += expected.empty() ? 0 : 1;
      total.candidates_after_gbp += stats.candidates_after_gbp;
      total.skipped += stats.skipped;
      total.pruned_by_bound += stats.pruned_by_bound;
      total.searched += stats.searched;
      total.abandoned += stats.abandoned;
    }
    const LayerTally& t = replay.tally();
    Expect(t.queries == static_cast<int>(queries.queries.size()) &&
               t.candidates == total.candidates_after_gbp &&
               t.skipped == total.skipped &&
               t.bound_pruned == total.pruned_by_bound &&
               t.dp_runs == total.searched &&
               t.dp_abandoned == total.abandoned,
           std::string(name) + ": replay funnel equals the engine's");
    Expect(answered >= 12, std::string(name) + ": most queries answered");
    Expect(t.dp_runs > 0 && t.dp_ns > 0 && spans.size() > 0,
           std::string(name) + ": replay timed its calls");
  }
}

/// Base then delta into one top-K: the replay equals SearchEngine::QueryInto
/// followed by DeltaEngine::QueryInto over the same pinned generation.
void TestReplayMatchesDeltaEngine() {
  const Workload& w = *FindWorkload("porto_live");
  const Dataset base = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(3, kCorpusStream), 300));
  const Dataset fresh = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(3, kFreshStream), 120));
  trajsearch::LiveDataset live(base);
  for (const trajsearch::TrajectoryRef t : fresh) live.Append(t.View());
  const trajsearch::CorpusView view = live.View();
  EngineOptions options = ServingEngineOptions(w);
  options.cell_size = trajsearch::DefaultCellSize(base.Bounds());
  const trajsearch::SearchEngine engine(DatasetView(view.base()), options);
  const trajsearch::DeltaEngine delta_engine(options);
  trajsearch::DeltaGridIndex delta_grid(options.cell_size);
  for (int i = 0; i < view.delta_size(); ++i) delta_grid.Add(view.delta()[i]);
  const QuerySet queries =
      SampleWindows(fresh, 16, w.query_min, w.query_max, 5, false);
  SpanLog spans(false);
  LayerReplay replay(options, &spans);
  for (size_t i = 0; i < queries.queries.size(); ++i) {
    const TrajectoryView q = queries.queries[i];
    trajsearch::SharedTopK replay_topk(options.top_k);
    replay.BasePart(*engine.grid(), DatasetView(view.base()), q, -1, 0,
                    &replay_topk, i);
    replay.DeltaPart(delta_grid, view.delta(), q, view.base_size(),
                     &replay_topk, i);
    const std::vector<EngineHit> replayed = replay.Finish(&replay_topk, i);
    trajsearch::SharedTopK topk(options.top_k);
    engine.QueryInto(q, &topk, 0);
    delta_engine.QueryInto(q, view.delta(), &delta_grid, &topk,
                           view.base_size());
    Expect(SameHits(replayed, topk.Sorted()),
           "live: replay hits equal base + delta engines");
  }
}

/// The checker passes a true answer and flags each defect class.
void TestCheckerFlagsDefects() {
  const Workload& w = *FindWorkload("porto_batch");
  const Dataset corpus = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(9, kCorpusStream), 200));
  // Unpruned, so the answer is never empty on a small corpus.
  EngineOptions options = ServingEngineOptions(w);
  options.use_gbp = false;
  options.use_kpf = false;
  const trajsearch::SearchEngine engine(corpus, options);
  const QuerySet queries =
      SampleWindows(corpus, 1, w.query_min, w.query_max, 2, true);
  const TrajectoryView q = queries.queries[0];
  const int excluded = queries.excluded[0];
  const std::vector<EngineHit> good = engine.Query(q, nullptr, excluded);
  const TrajectoryLookup lookup =
      [&corpus](int id) -> std::optional<TrajectoryView> {
    if (id < 0 || id >= corpus.size()) return std::nullopt;
    return corpus[id].View();
  };
  const auto check = [&](const std::vector<EngineHit>& hits) {
    return CheckHits(options.spec, q, excluded, 1, hits, lookup);
  };
  Expect(check(good).empty(), "checker passes the engine's answer");

  std::vector<EngineHit> bad = good;
  bad[0].result.distance =
      std::nextafter(bad[0].result.distance, INFINITY);
  Expect(!check(bad).empty(), "checker flags a distance one ulp off");

  bad = good;
  bad[0].result = trajsearch::SearchResult{};  // [-1, -1] at 1e300
  Expect(!check(bad).empty(), "checker flags the not-found sentinel");

  bad = good;
  bad[0].trajectory_id = excluded;
  Expect(check(bad).find("excluded") != std::string::npos,
         "checker flags the excluded id");

  bad = good;
  bad[0].trajectory_id = corpus.size();
  Expect(!check(bad).empty(), "checker flags an unknown id");

  bad = good;
  bad[0].result.range.end = corpus.length(bad[0].trajectory_id);
  Expect(!check(bad).empty(), "checker flags a range past the end");

  Expect(!check({}).empty(), "checker flags an empty answer");
}

/// No percentile is reported with fewer than ten samples beyond it.
void TestPercentileTailRule() {
  std::vector<double> xs;
  for (int i = 1; i <= 19; ++i) xs.push_back(i);
  Expect(!ReportablePercentile(xs, 50).has_value(),
         "p50 of 19 samples is withheld (9 beyond)");
  xs.push_back(20);
  const std::optional<double> p50 = ReportablePercentile(xs, 50);
  Expect(p50.has_value() && *p50 == 10, "p50 of 20 samples is the 10th");
  xs.clear();
  for (int i = 1; i <= 199; ++i) xs.push_back(i);
  Expect(!ReportablePercentile(xs, 95).has_value(),
         "p95 of 199 samples is withheld");
  xs.push_back(200);
  const std::optional<double> p95 = ReportablePercentile(xs, 95);
  Expect(p95.has_value() && *p95 == 190, "p95 of 200 samples is the 190th");
  Expect(!ReportablePercentile({}, 50).has_value(), "no samples, no p50");

  // Windowed: every window keeps ten samples beyond, and a burst confined
  // to one window does not move the median over windows.
  Expect(!WindowedPercentile(std::vector<double>(199, 1.0), 95).has_value(),
         "windowed p95 of 199 samples is withheld");
  std::vector<double> calls(100, 2.0);
  for (int i = 0; i < 20; ++i) calls[static_cast<size_t>(i)] = 50.0;
  const std::optional<double> w50 = WindowedPercentile(calls, 50);
  Expect(w50.has_value() && *w50 == 2.0, "a one-window burst is ignored");
  const std::vector<double> starts = {0, 1, 2, 3, 13};
  Expect(WindowedRate(starts, 14, {10, 10, 10, 10, 10}) == 10.0,
         "a slow window does not move the median rate");
}

/// Inputs are a function of the seed alone.
void TestSeededInputs() {
  const Workload& w = *FindWorkload("porto_batch");
  const Dataset a = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(4, kCorpusStream), 50));
  const Dataset b = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(4, kCorpusStream), 50));
  const Dataset c = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(5, kCorpusStream), 50));
  Expect(a.point_count() == b.point_count() &&
             a[7].View()[0].x == b[7].View()[0].x,
         "same seed, same corpus");
  Expect(a[7].View()[0].x != c[7].View()[0].x, "another seed, another corpus");
  const QuerySet q = SampleWindows(a, 40, 8, 12, 1, true);
  std::vector<int> sources = q.excluded;
  std::sort(sources.begin(), sources.end());
  Expect(std::adjacent_find(sources.begin(), sources.end()) == sources.end(),
         "sampled queries come from distinct sources");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestReplayMatchesEngine();
  perfbench::TestReplayMatchesDeltaEngine();
  perfbench::TestCheckerFlagsDefects();
  perfbench::TestPercentileTailRule();
  perfbench::TestSeededInputs();
  std::printf("%s (%d failures)\n",
              perfbench::failures == 0 ? "PASS" : "FAIL", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
