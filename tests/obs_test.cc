// Tests for the PR-6 observability layer: log-bucketed histogram geometry
// and percentile accuracy against a sorted-sample oracle, snapshot merge
// algebra, the lock-free counter/gauge/trace-ring primitives under
// concurrent writers (the stress cases are what the TSan CI job exists
// for), and the registry's find-or-create / snapshot semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stats.h"

namespace trajsearch::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket geometry.
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, EveryValueFallsInsideItsBucketBounds) {
  // Log-sweep the whole representable range plus the edges around it.
  std::vector<double> values = {0.0, 1e-12, 0.5, 1.0, 1.5, 2.0, 3.75, 1e3};
  for (double v = 1e-10; v < 1e5; v *= 1.37) values.push_back(v);
  for (const double v : values) {
    const int b = HistogramSnapshot::BucketIndex(v);
    ASSERT_GE(b, 0) << v;
    ASSERT_LT(b, HistogramSnapshot::kBuckets) << v;
    EXPECT_LE(HistogramSnapshot::BucketLowerBound(b), v) << v;
    EXPECT_LT(v, HistogramSnapshot::BucketUpperBound(b)) << v;
  }
  // Zero and negatives land in the underflow bucket.
  EXPECT_EQ(HistogramSnapshot::BucketIndex(0.0), 0);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(-1.0), 0);
  // Beyond-range values land in the overflow bucket, whose upper bound is
  // infinite.
  const int overflow = HistogramSnapshot::kBuckets - 1;
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1e30), overflow);
  EXPECT_TRUE(std::isinf(HistogramSnapshot::BucketUpperBound(overflow)));
}

TEST(HistogramBuckets, IndexIsMonotoneAndBucketsAreNarrow) {
  int last = -1;
  for (double v = 1e-9; v < 1e3; v *= 1.05) {
    const int b = HistogramSnapshot::BucketIndex(v);
    EXPECT_GE(b, last) << v;
    last = b;
    // Log-linear with 8 sub-buckets per octave: every regular bucket is at
    // most 12.5% wide relative to its lower bound.
    const double lo = HistogramSnapshot::BucketLowerBound(b);
    const double hi = HistogramSnapshot::BucketUpperBound(b);
    EXPECT_LE((hi - lo) / lo, 0.125 + 1e-9) << v;
  }
  // Adjacent buckets tile the range: each upper bound is the next bucket's
  // lower bound.
  for (int b = 1; b + 2 < HistogramSnapshot::kBuckets; ++b) {
    EXPECT_DOUBLE_EQ(HistogramSnapshot::BucketUpperBound(b),
                     HistogramSnapshot::BucketLowerBound(b + 1))
        << b;
  }
}

// ---------------------------------------------------------------------------
// Percentiles vs the exact sorted-sample oracle (util/stats.h).
// ---------------------------------------------------------------------------

TEST(HistogramPercentiles, MatchSortedSampleOracleWithinOneBucket) {
  Rng rng(7);
  Histogram hist;
  std::vector<double> values;
  // Log-normal-ish latencies spanning several octaves, the regime the
  // serving histograms live in.
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-3 * std::exp(rng.Normal(0, 1.2));
    values.push_back(v);
    hist.Record(v);
  }
  const HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = Percentile(values, p);
    const double approx = snap.Percentile(p);
    // The histogram returns the midpoint of the bucket holding the rank, so
    // it must land in the same or an adjacent bucket as the exact order
    // statistic, and within ~one 12.5% bucket width of it.
    EXPECT_LE(std::abs(HistogramSnapshot::BucketIndex(approx) -
                       HistogramSnapshot::BucketIndex(exact)),
              1)
        << "p" << p;
    EXPECT_NEAR(approx, exact, 0.14 * exact) << "p" << p;
  }
  double exact_mean = 0;
  for (const double v : values) exact_mean += v;
  exact_mean /= static_cast<double>(values.size());
  EXPECT_NEAR(snap.Mean(), exact_mean, 1e-9 * exact_mean);
}

TEST(HistogramPercentiles, DegenerateDistributions) {
  Histogram hist;
  EXPECT_EQ(hist.Snapshot().Percentile(50), 0.0);  // empty
  for (int i = 0; i < 1000; ++i) hist.Record(1.0);
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1.0);
  // Every percentile of a constant distribution is that constant, up to
  // bucket resolution.
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_NEAR(snap.Percentile(p), 1.0, 0.125) << p;
  }
}

// ---------------------------------------------------------------------------
// Merge algebra: associative and commutative, exact on counts.
// ---------------------------------------------------------------------------

HistogramSnapshot Recorded(uint64_t seed, int n) {
  Rng rng(seed);
  Histogram h;
  for (int i = 0; i < n; ++i) h.Record(std::exp(rng.Normal(-3, 2)));
  return h.Snapshot();
}

void ExpectSame(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    ASSERT_EQ(a.buckets[static_cast<size_t>(i)],
              b.buckets[static_cast<size_t>(i)])
        << i;
  }
}

TEST(HistogramMerge, AssociativeAndCommutative) {
  const HistogramSnapshot a = Recorded(1, 500);
  const HistogramSnapshot b = Recorded(2, 800);
  const HistogramSnapshot c = Recorded(3, 300);

  HistogramSnapshot ab_c = a;   // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  ExpectSame(ab_c, a_bc);

  HistogramSnapshot ba = b;     // commutativity
  ba.Merge(a);
  HistogramSnapshot ab = a;
  ab.Merge(b);
  ExpectSame(ab, ba);

  ASSERT_EQ(ab_c.count, 1600u);
  // Percentiles of the merge see the union of the samples: between the
  // per-part extremes.
  const double merged_p50 = ab_c.Percentile(50);
  const double lo = std::min({a.Percentile(50), b.Percentile(50),
                              c.Percentile(50)});
  const double hi = std::max({a.Percentile(50), b.Percentile(50),
                              c.Percentile(50)});
  EXPECT_GE(merged_p50, lo * (1 - 1e-9));
  EXPECT_LE(merged_p50, hi * (1 + 1e-9));
}

// ---------------------------------------------------------------------------
// Concurrency: the lock-free primitives under parallel writers. These are
// the tests the TSan CI job runs over the obs layer.
// ---------------------------------------------------------------------------

TEST(CounterConcurrency, ParallelAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAdds = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kAdds);

  Counter seconds;
  seconds.AddSeconds(1.5);
  seconds.AddSeconds(0.25);
  EXPECT_NEAR(seconds.Seconds(), 1.75, 1e-9);
  EXPECT_EQ(Gauge().Value(), 0);
  Gauge gauge;
  gauge.Set(42);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 40);
}

TEST(HistogramConcurrency, ParallelRecordersWithLiveSnapshots) {
  Histogram hist;
  constexpr int kThreads = 6;
  constexpr int kRecords = 20000;
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kRecords;
  std::atomic<bool> stop{false};
  // A reader snapshots continuously while writers record. A live snapshot
  // is a valid subset of the writes (bucket and count are separate relaxed
  // adds, so the two totals may momentarily differ by in-flight records) —
  // what must hold is that both are monotone lower bounds of the writes.
  std::thread reader([&]() {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snap = hist.Snapshot();
      uint64_t total = 0;
      for (const uint64_t b : snap.buckets) total += b;
      ASSERT_GE(snap.count, last_count);
      last_count = snap.count;
      ASSERT_LE(snap.count, kTotal);
      ASSERT_LE(total, kTotal);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t]() {
      for (int i = 0; i < kRecords; ++i) {
        hist.Record(0.001 * static_cast<double>((i + t) % 16 + 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  // Quiesced: the snapshot is exact, and count equals the bucket total.
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kTotal);
  uint64_t bucket_total = 0;
  for (const uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kTotal);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRecords; ++i) {
      expected_sum += 0.001 * static_cast<double>((i + t) % 16 + 1);
    }
  }
  EXPECT_NEAR(snap.sum, expected_sum, 1e-6 * expected_sum);
}

// ---------------------------------------------------------------------------
// Trace ring.
// ---------------------------------------------------------------------------

TraceSpan Span(uint64_t query_id, SpanKind kind = SpanKind::kDpSearch) {
  TraceSpan span;
  span.query_id = query_id;
  span.kind = kind;
  span.start_nanos = static_cast<int64_t>(query_id) * 10;
  span.duration_nanos = 5;
  span.value = static_cast<int64_t>(query_id);
  return span;
}

TEST(TraceRing, RetainsAllSpansWhenUnderCapacity) {
  TraceRing ring(16);
  EXPECT_EQ(ring.capacity(), 16u);
  for (uint64_t i = 0; i < 5; ++i) ring.Record(Span(i));
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(spans[i].query_id, i);  // oldest first
    EXPECT_EQ(spans[i].value, static_cast<int64_t>(i));
  }
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 40; ++i) ring.Record(Span(i));
  EXPECT_EQ(ring.recorded(), 40u);
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 16u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].query_id, 24 + i);  // last 16, oldest first
  }
}

TEST(TraceRing, ConcurrentWritersNeverTearSpans) {
  TraceRing ring(64);
  constexpr int kThreads = 4;
  constexpr int kSpans = 20000;
  std::atomic<bool> stop{false};
  // Every span writes value == query_id; a snapshot must never observe a
  // slot mixing two writes (the per-slot ticket protects it).
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceSpan& span : ring.Snapshot()) {
        ASSERT_EQ(span.value, static_cast<int64_t>(span.query_id));
        ASSERT_EQ(span.start_nanos,
                  static_cast<int64_t>(span.query_id) * 10);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t]() {
      for (int i = 0; i < kSpans; ++i) {
        ring.Record(Span(static_cast<uint64_t>(t) * kSpans +
                         static_cast<uint64_t>(i)));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(ring.recorded(), static_cast<uint64_t>(kThreads) * kSpans);
  // A claim whose slot a concurrent write held is dropped, so the final
  // window of the run may hold fewer than capacity() spans.
  EXPECT_LE(ring.Snapshot().size(), ring.capacity());
  // With every writer joined no write is in flight: capacity() more spans
  // on one thread all land, and the ring keeps exactly those, oldest first.
  const uint64_t dropped = ring.dropped();
  const uint64_t first = static_cast<uint64_t>(kThreads) * kSpans;
  for (uint64_t i = 0; i < ring.capacity(); ++i) ring.Record(Span(first + i));
  EXPECT_EQ(ring.dropped(), dropped);
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), ring.capacity());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].query_id, first + i);
  }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* c1 = registry.counter("service.queries");
  Counter* c2 = registry.counter("service.queries");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("service.batches"), c1);
  // The three metric kinds have independent namespaces.
  Gauge* g = registry.gauge("service.queries");
  Histogram* h = registry.histogram("service.queries");
  EXPECT_EQ(g, registry.gauge("service.queries"));
  EXPECT_EQ(h, registry.histogram("service.queries"));

  c1->Add(3);
  g->Set(-7);
  h->Record(0.5);
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("service.queries"), 3u);
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
  EXPECT_EQ(snap.gauge("service.queries"), -7);
  ASSERT_NE(snap.histogram("service.queries"), nullptr);
  EXPECT_EQ(snap.histogram("service.queries")->count, 1u);
  EXPECT_EQ(snap.histogram("no.such.histogram"), nullptr);
}

TEST(Registry, QueryIdsAndKillSwitch) {
  Registry registry;
  EXPECT_TRUE(registry.enabled());
  EXPECT_EQ(registry.NextQueryId(), 1u);  // 0 is reserved for non-query
  EXPECT_EQ(registry.NextQueryId(), 2u);
  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
  registry.set_enabled(true);
  EXPECT_TRUE(registry.enabled());
}

TEST(Registry, ConcurrentRegistrationAndUse) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      // All threads race to register the same names; everyone must get the
      // same objects and no increment may be lost.
      for (int i = 0; i < 5000; ++i) {
        registry.counter("contended.counter")->Add();
        registry.histogram("contended.hist")->Record(0.001);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("contended.counter"), kThreads * 5000u);
  EXPECT_EQ(snap.histogram("contended.hist")->count, kThreads * 5000u);
}

// ---------------------------------------------------------------------------
// Exporters: funnel extraction and statsz JSON shape.
// ---------------------------------------------------------------------------

TEST(Export, ExtractsConsistentFunnelRows) {
  Registry registry;
  registry.counter("engine.CMA.funnel.queries")->Add(2);
  registry.counter("engine.CMA.funnel.candidates")->Add(10);
  registry.counter("engine.CMA.funnel.skipped")->Add(1);
  registry.counter("engine.CMA.funnel.bound_pruned")->Add(4);
  registry.counter("engine.CMA.funnel.dp_runs")->Add(5);
  registry.counter("engine.CMA.funnel.dp_abandoned")->Add(2);
  registry.counter("engine.CMA.funnel.dp_completed")->Add(3);
  registry.counter("engine.Spring.funnel.candidates")->Add(6);
  registry.counter("engine.Spring.funnel.dp_runs")->Add(6);
  registry.counter("engine.Spring.funnel.dp_completed")->Add(6);

  const std::vector<FunnelRow> funnels =
      ExtractFunnels(registry.Snapshot());
  ASSERT_EQ(funnels.size(), 2u);
  EXPECT_EQ(funnels[0].algorithm, "CMA");
  EXPECT_EQ(funnels[0].candidates, 10u);
  EXPECT_EQ(funnels[0].bound_pruned, 4u);
  EXPECT_TRUE(funnels[0].Consistent());
  EXPECT_EQ(funnels[1].algorithm, "Spring");
  EXPECT_TRUE(funnels[1].Consistent());

  FunnelRow broken = funnels[0];
  broken.dp_runs += 1;
  EXPECT_FALSE(broken.Consistent());
}

TEST(Export, StatszJsonContainsEverySection) {
  Registry registry;
  registry.counter("service.queries")->Add(4);
  registry.gauge("live.generation")->Set(2);
  registry.histogram("service.query_seconds")->Record(0.01);
  registry.trace().Record(Span(1, SpanKind::kCacheLookup));
  const std::vector<TraceSpan> trace = registry.trace().Snapshot();
  const std::string json = StatszJson(registry.Snapshot(), &trace);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"service.queries\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("cache_lookup"), std::string::npos);
  const std::string table = StatszTable(registry.Snapshot());
  EXPECT_NE(table.find("service.queries"), std::string::npos);
}

}  // namespace
}  // namespace trajsearch::obs
