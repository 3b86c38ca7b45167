// perfbench_layers — the layered end-to-end benchmark binary (see
// perfbench/NOTES.md for the workloads, the thread budget and the metrics).
//
//   perfbench_layers prepare --workload W --seed S --dir D
//       generates the workload's corpus from the seed and writes it as the
//       v4 snapshot (with its grid section) the run step serves;
//   perfbench_layers run --workload W --seed S --seconds T --trace 0|1 --dir D
//       serves it and prints one JSON result as the last line of stdout:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
// Correctness checks run after the timed phase and never abort the run: a
// failed check counts one failed operation and the remaining checks still
// run.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/live_dataset.h"
#include "gen/taxi.h"
#include "harness.h"
#include "io/snapshot_v4.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "service/query_service.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using trajsearch::CorpusView;
using trajsearch::MmapSnapshot;
using trajsearch::QueryService;
using trajsearch::ServiceOptions;
using trajsearch::Stopwatch;

constexpr int kWorkerThreads = 2;  // + the client thread = 3 busy threads
// One shard: with two, each Submit hands a shard to a pool worker whose
// wake-up time varies from run to run on a shared host (NOTES.md).
constexpr int kShards = 1;
// Ingest probe of the non-live workloads (see IngestProbe).
constexpr int kProbePrefill = 400;
constexpr int kProbeAppends = 600;
constexpr int kProbeAppendBatch = 1;
// porto_live query calls per step. The first call after an append pays the
// new generation's cache misses and its lazily built delta grid; the later
// ones mostly hit the cache. With three calls the latency median falls
// inside the fast mode instead of on the edge between the two modes.
constexpr int kLiveCallsPerStep = 3;
// porto_live compaction backpressure. The append that brings the delta to
// the compaction threshold schedules a background compaction; the client
// keeps stepping beside it for this many steps, then waits until it is
// adopted before the next append. So every step serves the same delta on
// every run, however fast the host runs the compaction (NOTES.md).
constexpr int kCompactionWindow = 4;
// Longest wait for one compaction before the run counts it as failed.
constexpr double kCompactionTimeoutS = 60;

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_layers: %s\nusage: perfbench_layers prepare|run "
               "--workload W --seed S --dir D [--seconds T] [--trace 0|1]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.dir.empty() || args.workload.empty()) Usage("missing flag");
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// The metrics of one result line, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      missing_.push_back(name);
      return;
    }
    metrics_.push_back({name, value, unit});
  }
  /// A windowed percentile, or a missing metric when too few samples lie
  /// beyond it.
  void AddPercentile(const std::string& name, const std::vector<double>& xs,
                     double p, const std::string& unit) {
    const std::optional<double> v = WindowedPercentile(xs, p);
    if (v.has_value()) {
      Add(name, *v, unit);
    } else {
      missing_.push_back(name);
    }
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    for (const std::string& name : missing_) {
      std::printf("metric %s: not reportable (too few samples)\n",
                  name.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct && missing_.empty() ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> missing_;
};

/// Failed-operation bookkeeping: prints the first few defects.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(const std::string& what, const std::string& defect) {
    ++attempted;
    if (defect.empty()) return;
    if (++failed <= 5) {
      std::printf("check failed: %s: %s\n", what.c_str(), defect.c_str());
    }
  }
};

std::string SnapshotPath(const Args& args) { return args.dir + "/corpus.snap"; }

int Prepare(const Workload& w, const Args& args) {
  Stopwatch watch;
  const Dataset corpus = trajsearch::GenerateTaxiDataset(CorpusProfile(
      w, StreamSeed(args.seed, kCorpusStream), w.corpus_size));
  const double generate_s = watch.Seconds();
  watch.Reset();
  const std::string path = SnapshotPath(args);
  const std::string tmp = path + ".tmp";
  const trajsearch::Status st = trajsearch::WriteSnapshotV4(corpus, tmp);
  if (!st.ok() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "writing %s failed: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("prepared %s: %d trajectories, %zu points; generated in %.2f s, "
              "snapshot written in %.2f s\n",
              w.name.c_str(), corpus.size(), corpus.point_count(), generate_s,
              watch.Seconds());
  return 0;
}

ServiceOptions MakeServiceOptions(const Workload& w,
                                  const trajsearch::GridIndex* grid) {
  ServiceOptions options;
  options.engine = ServingEngineOptions(w);
  options.engine.prebuilt_grid = grid;
  options.shards = kShards;
  options.worker_threads = kWorkerThreads;
  return options;
}

/// One served corpus: the open snapshot and the service over it (declared
/// in this order so the service is destroyed first).
struct Served {
  std::unique_ptr<MmapSnapshot> snapshot;
  std::unique_ptr<QueryService> service;
};

/// Set-up timings of one open-construct-first-call cycle.
struct SetupTimes {
  double open_s = 0;
  double construct_s = 0;
  double first_call_s = 0;
  double total_s = 0;
};

/// Calls the workload's query call shape: SubmitBatch of `queries`, or one
/// Submit per call when the workload's batch is 1.
std::vector<std::vector<EngineHit>> Call(QueryService* service,
                                         const Workload& w,
                                         const std::vector<TrajectoryView>& q,
                                         const std::vector<int>& excluded) {
  if (w.batch == 1) return {service->Submit(q[0], excluded[0])};
  return service->SubmitBatch(q, excluded);
}

const char* CallName(const Workload& w) {
  return w.batch == 1 ? "QueryService::Submit" : "QueryService::SubmitBatch";
}

/// Opens the snapshot, constructs the service and answers one first call;
/// setup_s is the sum, from the open to the first answer.
Served SetUp(const Workload& w, const Args& args, const QuerySet& warmup,
             SpanLog* spans, SetupTimes* times) {
  Served served;
  std::vector<TrajectoryView> q;
  for (int i = 0; i < std::min<int>(w.batch, warmup.queries.size()); ++i) {
    q.push_back(warmup.queries[static_cast<size_t>(i)]);
  }
  const std::vector<int> excluded(warmup.excluded.begin(),
                                  warmup.excluded.begin() +
                                      static_cast<std::ptrdiff_t>(q.size()));
  Stopwatch total;
  int64_t span = spans->Open("MmapSnapshot::Open", -1, 0);
  trajsearch::Result<MmapSnapshot> opened =
      MmapSnapshot::Open(SnapshotPath(args));
  spans->Close(span);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  served.snapshot = std::make_unique<MmapSnapshot>(opened.MoveValue());
  times->open_s = total.Seconds();
  span = spans->Open("QueryService::QueryService", -1, 0);
  served.service = std::make_unique<QueryService>(
      served.snapshot->dataset(),
      MakeServiceOptions(w, served.snapshot->grid()));
  spans->Close(span);
  times->construct_s = total.Seconds() - times->open_s;
  span = spans->Open(CallName(w), -1, 0);
  Call(served.service.get(), w, q, excluded);
  spans->Close(span);
  times->total_s = total.Seconds();
  times->first_call_s = times->total_s - times->open_s - times->construct_s;
  return served;
}

/// Sets the workload up `setup_repeats` times; keeps the last service.
Served RepeatedSetUp(const Workload& w, const Args& args,
                     const QuerySet& warmup, SpanLog* spans,
                     std::vector<SetupTimes>* times) {
  Served served;
  for (int r = 0; r < w.setup_repeats; ++r) {
    served = Served{};  // tear the previous one down before timing the next
    SetupTimes t;
    served = SetUp(w, args, warmup, spans, &t);
    times->push_back(t);
  }
  return served;
}

/// Client-side timings of the timed phase.
struct Phase {
  std::vector<double> call_ms;
  std::vector<double> traced_ms;    // calls wrapped in a benchmark span
  std::vector<double> untraced_ms;  // the interleaved calls without one
  std::vector<double> append_ms;
  // Start of each op (a call, or a porto_live step) since the phase began,
  // and the queries it answered.
  std::vector<double> op_start_s;
  std::vector<int> op_queries;
  int64_t queries = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Registry counter difference over a phase.
uint64_t Delta(const trajsearch::obs::RegistrySnapshot& after,
               const trajsearch::obs::RegistrySnapshot& before,
               const std::string& name) {
  return after.counter(name) - before.counter(name);
}

/// Percentile (ms) of the scheduler's task-wait histogram over a phase,
/// or NaN when fewer than ten waits lie beyond it.
double TaskWaitMs(const trajsearch::obs::RegistrySnapshot& after,
                  const trajsearch::obs::RegistrySnapshot& before, double p) {
  const char* name = "scheduler.task_wait_seconds";
  const trajsearch::obs::HistogramSnapshot* a = after.histogram(name);
  if (a == nullptr) return NAN;
  trajsearch::obs::HistogramSnapshot diff = *a;
  if (const auto* b = before.histogram(name); b != nullptr) {
    diff.count -= b->count;
    diff.sum -= b->sum;
    for (size_t i = 0; i < diff.buckets.size(); ++i) {
      diff.buckets[i] -= b->buckets[i];
    }
  }
  const double beyond = static_cast<double>(diff.count) * (1 - p / 100.0);
  if (beyond < 10) return NAN;
  return diff.Percentile(p) * 1e3;
}

/// Share of the served top-1 distances equal to the unpruned engine's (GBP
/// and KPF off), run on the three-thread budget. An answer that failed its
/// checks (nullopt) counts as not exact. When `in_delta` is set, it counts
/// the queries whose unpruned top-1 id is `delta_begin` or above.
double ExactShare(const Workload& w, const Dataset& corpus,
                  const std::vector<TrajectoryView>& queries,
                  const std::vector<int>& excluded,
                  const std::vector<std::optional<double>>& served,
                  int delta_begin = 0, int* in_delta = nullptr) {
  trajsearch::ThreadPool pool(kWorkerThreads);
  EngineOptions options = ServingEngineOptions(w);
  options.use_gbp = false;
  options.use_kpf = false;
  options.threads = kWorkerThreads + 1;
  options.scheduler = &pool;
  const trajsearch::SearchEngine engine(corpus, options);
  int exact = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!served[i].has_value()) continue;
    const std::vector<EngineHit> best =
        engine.Query(queries[i], nullptr, excluded[i]);
    if (in_delta != nullptr && !best.empty() &&
        best[0].trajectory_id >= delta_begin) {
      ++*in_delta;
    }
    if (!best.empty() && best[0].result.distance == *served[i]) ++exact;
  }
  return queries.empty() ? 0.0
                         : static_cast<double>(exact) /
                               static_cast<double>(queries.size());
}

/// The per-layer metrics read from the replay tally and the service's
/// registry deltas over the timed phase.
void AddLayerMetrics(const LayerTally& t,
                     const trajsearch::obs::RegistrySnapshot& after,
                     const trajsearch::obs::RegistrySnapshot& before,
                     Report* report) {
  const double rq = std::max(1, t.queries);
  report->Add("prune.gbp_us", static_cast<double>(t.gbp_ns) / rq / 1e3, "us");
  report->Add("prune.bound_us", static_cast<double>(t.bound_ns) / rq / 1e3,
              "us");
  report->Add("search.dp_us", static_cast<double>(t.dp_ns) / rq / 1e3, "us");
  report->Add("search.merge_us", static_cast<double>(t.merge_ns) / rq / 1e3,
              "us");
  const double cells = static_cast<double>(t.vector_cells + t.scalar_cells);
  report->Add("search.dp_cells_per_us",
              t.dp_ns > 0 ? cells / (static_cast<double>(t.dp_ns) / 1e3) : 0,
              "1/us");

  // Funnel counts of the real pipeline, per searched (cache-missing) query.
  const std::string f = "engine.CMA.funnel.";
  const std::string s = "engine.CMA.simd.";
  const double searched =
      std::max<double>(1, static_cast<double>(Delta(after, before,
                                                    "service.cache.misses")));
  const double candidates =
      static_cast<double>(Delta(after, before, f + "candidates"));
  const double dp_runs = static_cast<double>(Delta(after, before, f + "dp_runs"));
  const double vector_cells =
      static_cast<double>(Delta(after, before, s + "vector_cells"));
  const double scalar_cells =
      static_cast<double>(Delta(after, before, s + "scalar_cells"));
  report->Add("prune.candidates", candidates / searched, "count");
  report->Add("prune.bound_pruned_ratio",
              candidates > 0 ? static_cast<double>(Delta(
                                   after, before, f + "bound_pruned")) /
                                   candidates
                             : 0,
              "share");
  report->Add("search.dp_runs", dp_runs / searched, "count");
  report->Add("search.dp_abandon_ratio",
              dp_runs > 0 ? static_cast<double>(
                                Delta(after, before, f + "dp_abandoned")) /
                                dp_runs
                          : 0,
              "share");
  report->Add("search.dp_cells", (vector_cells + scalar_cells) / searched,
              "count");
  report->Add("search.dp_vector_share",
              vector_cells + scalar_cells > 0
                  ? vector_cells / (vector_cells + scalar_cells)
                  : 0,
              "share");
  report->Add("search.lane_abandons",
              static_cast<double>(Delta(after, before, s + "lane_abandons")) /
                  searched,
              "count");
}

/// Prints the replay's funnel beside the service's, both per query.
void PrintFunnels(const LayerTally& t,
                  const trajsearch::obs::RegistrySnapshot& after,
                  const trajsearch::obs::RegistrySnapshot& before) {
  const std::string f = "engine.CMA.funnel.";
  std::printf("service funnel (timed phase totals):");
  for (const char* c : {"queries", "candidates", "skipped", "bound_pruned",
                        "dp_runs", "dp_abandoned", "dp_completed"}) {
    std::printf(" %s=%llu", c,
                static_cast<unsigned long long>(Delta(after, before, f + c)));
  }
  for (const char* c : {"vector_cells", "scalar_cells", "lane_abandons"}) {
    std::printf(" simd.%s=%llu", c,
                static_cast<unsigned long long>(
                    Delta(after, before, std::string("engine.CMA.simd.") + c)));
  }
  std::printf("\nreplay funnel (%d queries): candidates=%lld skipped=%lld "
              "bound_pruned=%lld dp_runs=%lld dp_abandoned=%lld "
              "simd.vector_cells=%llu simd.scalar_cells=%llu "
              "simd.lane_abandons=%llu\n",
              t.queries, static_cast<long long>(t.candidates),
              static_cast<long long>(t.skipped),
              static_cast<long long>(t.bound_pruned),
              static_cast<long long>(t.dp_runs),
              static_cast<long long>(t.dp_abandoned),
              static_cast<unsigned long long>(t.vector_cells),
              static_cast<unsigned long long>(t.scalar_cells),
              static_cast<unsigned long long>(t.lane_abandons));
}

/// Service-side per-layer metrics shared by every workload.
void AddServiceMetrics(const std::vector<SetupTimes>& setup,
                       const Served& served, const Phase& phase,
                       const trajsearch::obs::RegistrySnapshot& after,
                       const trajsearch::obs::RegistrySnapshot& before,
                       Report* report) {
  std::vector<double> open, construct, first;
  for (const SetupTimes& t : setup) {
    open.push_back(t.open_s * 1e3);
    construct.push_back(t.construct_s * 1e3);
    first.push_back(t.first_call_s * 1e3);
  }
  report->Add("io.open_ms", Median(open), "ms");
  report->Add("io.mapped_mb",
              static_cast<double>(served.snapshot->mapped_bytes()) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Add("service.construct_ms", Median(construct), "ms");
  report->Add("service.first_call_ms", Median(first), "ms");
  const double hits =
      static_cast<double>(Delta(after, before, "service.cache.hits"));
  const double misses =
      static_cast<double>(Delta(after, before, "service.cache.misses"));
  report->Add("service.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0, "share");
  report->Add("scheduler.task_wait_ms_p50", TaskWaitMs(after, before, 50),
              "ms");
  report->Add("scheduler.task_wait_ms_p95", TaskWaitMs(after, before, 95),
              "ms");
  report->Add("process.cpu_util",
              phase.cpu_s / (phase.wall_s * (kWorkerThreads + 1)), "share");
  // Tracing overhead: mean latency of the calls wrapped in a benchmark span
  // against the interleaved calls without one.
  const auto mean = [](const std::vector<double>& xs) {
    double sum = 0;
    for (const double x : xs) sum += x;
    return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
  };
  const double traced = mean(phase.traced_ms);
  const double untraced = mean(phase.untraced_ms);
  report->Add("trace.overhead_share",
              untraced > 0 ? traced / untraced - 1 : 0, "share");
}

TrajectoryLookup DatasetLookup(const Dataset& corpus) {
  return [&corpus](int id) -> std::optional<TrajectoryView> {
    if (id < 0 || id >= corpus.size()) return std::nullopt;
    return corpus[id].View();
  };
}

TrajectoryLookup ViewLookup(const CorpusView& view) {
  return [&view](int id) -> std::optional<TrajectoryView> {
    if (id < 0 || id >= view.size()) return std::nullopt;
    return view[id].View();
  };
}

/// The ingest probe of the non-live workloads, whose timed phase has no
/// writes. One untimed AppendBatch first fills the delta with
/// kProbePrefill fresh trips; then kProbeAppends cycles each time one
/// AppendBatch of kProbeAppendBatch trips and then Submit the first points
/// of the last one, unchanged. The delta stays between 400 and 1000
/// trajectories, inside porto_live's range and below the compaction
/// threshold, so every timed append costs about the same. The read builds
/// the new generation's delta grid, as reads between appends do on
/// porto_live, so each timed append also retires the previous generation;
/// it also checks that the appended trip is visible to the next call, at
/// distance 0.
std::vector<double> IngestProbe(const Workload& w, const Args& args,
                                QueryService* service, Checks* checks) {
  const Dataset trips = trajsearch::GenerateTaxiDataset(
      CorpusProfile(w, StreamSeed(args.seed, kFreshStream),
                    kProbePrefill + kProbeAppends * kProbeAppendBatch));
  const DistanceSpec spec = ServingEngineOptions(w).spec;
  std::vector<TrajectoryView> prefill;
  for (int i = 0; i < kProbePrefill; ++i) prefill.push_back(trips[i]);
  service->AppendBatch(prefill);
  std::vector<double> ms;
  int next = kProbePrefill;
  for (int call = 0; call < kProbeAppends; ++call) {
    std::vector<TrajectoryView> batch;
    for (int i = 0; i < kProbeAppendBatch; ++i) batch.push_back(trips[next++]);
    Stopwatch watch;
    const std::vector<int> ids = service->AppendBatch(batch);
    ms.push_back(watch.Millis());
    const TrajectoryView read = batch.back().first(
        std::min(batch.back().size(), static_cast<size_t>(w.query_max)));
    const std::vector<EngineHit> hits = service->Submit(read);
    const CorpusView view = service->View();
    std::string defect = CheckHits(spec, read, -1, 1, hits, ViewLookup(view));
    if (defect.empty() && hits[0].result.distance != 0) {
      defect = "just-appended trip not found at distance 0";
    }
    if (defect.empty() &&
        (ids.size() != batch.size() || ids.back() != view.size() - 1)) {
      defect = "append returned unexpected ids";
    }
    checks->Count("append probe " + std::to_string(call), defect);
  }
  return ms;
}

/// porto_batch and xian_single: distinct corpus windows, source excluded,
/// SubmitBatch(32) or Submit per call.
int RunSampled(const Workload& w, const Args& args) {
  SpanLog spans(args.trace);
  const int calls = args.seconds * w.calls_per_second;
  const int total = calls * w.batch;
  QuerySet queries, warmup;
  {
    // Inputs are cut from the corpus before set-up; this mapping is closed
    // again so it never counts toward the served process's memory.
    trajsearch::Result<MmapSnapshot> sample =
        MmapSnapshot::Open(SnapshotPath(args));
    if (!sample.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    queries = SampleWindows(sample.value().dataset(), total, w.query_min,
                            w.query_max, StreamSeed(args.seed, kQueryStream),
                            /*exclude_source=*/true);
    warmup = SampleWindows(sample.value().dataset(), w.batch, w.query_min,
                           w.query_max, StreamSeed(args.seed, kWarmupStream),
                           /*exclude_source=*/true);
  }

  std::vector<SetupTimes> setup;
  Served served = RepeatedSetUp(w, args, warmup, &spans, &setup);
  QueryService& service = *served.service;
  const Dataset& corpus = served.snapshot->dataset();

  // Timed phase: a fixed list of calls, closed loop, one client thread.
  std::vector<std::vector<EngineHit>> answers(static_cast<size_t>(total));
  Phase phase;
  const trajsearch::obs::RegistrySnapshot before = service.metrics().Snapshot();
  const double cpu0 = CpuSeconds();
  Stopwatch wall;
  std::vector<TrajectoryView> q;
  std::vector<int> excluded;
  for (int c = 0; c < calls; ++c) {
    q.clear();
    excluded.clear();
    for (int i = c * w.batch; i < (c + 1) * w.batch; ++i) {
      q.push_back(queries.queries[static_cast<size_t>(i)]);
      excluded.push_back(queries.excluded[static_cast<size_t>(i)]);
    }
    const bool traced = spans.enabled() && c % 2 == 0;
    phase.op_start_s.push_back(wall.Seconds());
    phase.op_queries.push_back(w.batch);
    Stopwatch call;
    const int64_t span =
        traced ? spans.Open(CallName(w), -1, static_cast<uint64_t>(c) + 1)
               : -1;
    std::vector<std::vector<EngineHit>> hits = Call(&service, w, q, excluded);
    spans.Close(span);
    const double ms = call.Millis();
    phase.call_ms.push_back(ms);
    (traced ? phase.traced_ms : phase.untraced_ms).push_back(ms);
    for (int i = 0; i < w.batch; ++i) {
      answers[static_cast<size_t>(c * w.batch + i)] =
          std::move(hits[static_cast<size_t>(i)]);
    }
  }
  phase.wall_s = wall.Seconds();
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.queries = total;
  const double memory_mib = PeakRssMiB();
  const trajsearch::obs::RegistrySnapshot after = service.metrics().Snapshot();

  // Checks, outside the timed phase.
  Checks checks;
  const EngineOptions options = ServingEngineOptions(w);
  const TrajectoryLookup lookup = DatasetLookup(corpus);
  std::vector<bool> passed(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const std::string defect =
        CheckHits(options.spec, queries.queries[static_cast<size_t>(i)],
                  queries.excluded[static_cast<size_t>(i)], options.top_k,
                  answers[static_cast<size_t>(i)], lookup);
    passed[static_cast<size_t>(i)] = defect.empty();
    checks.Count("query " + std::to_string(i), defect);
  }

  Report report;
  if (!args.trace) {
    const std::vector<double> append_ms =
        IngestProbe(w, args, &service, &checks);
    const int sample = std::min(w.exact_sample, total);
    std::vector<TrajectoryView> exact_q;
    std::vector<std::optional<double>> served_top1;
    for (int i = 0; i < sample; ++i) {
      exact_q.push_back(queries.queries[static_cast<size_t>(i)]);
      served_top1.push_back(
          passed[static_cast<size_t>(i)]
              ? std::optional<double>(
                    answers[static_cast<size_t>(i)][0].result.distance)
              : std::nullopt);
    }
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup) setup_s.push_back(t.total_s);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("qps",
               WindowedRate(phase.op_start_s, phase.wall_s, phase.op_queries),
               "1/s");
    report.AddPercentile("latency_p50_ms", phase.call_ms, 50, "ms");
    report.AddPercentile("latency_p90_ms", phase.call_ms, 90, "ms");
    report.AddPercentile("append_p50_ms", append_ms, 50, "ms");
    report.AddPercentile("append_p90_ms", append_ms, 90, "ms");
    report.Add("memory_mb", memory_mib, "MiB");
    Stopwatch exact_watch;
    const double exact_share = ExactShare(w, corpus, exact_q,
                          std::vector<int>(queries.excluded.begin(),
                                           queries.excluded.begin() + sample),
                          served_top1);
    std::printf("exact_share: %d queries against the unpruned engine in "
                "%.2f s\n", sample, exact_watch.Seconds());
    report.Add("exact_share", exact_share, "share");
  } else {
    // Serial replay of the first traced queries through the layers' public
    // calls, checked hit for hit against SearchEngine::Query over the same
    // corpus and grid.
    EngineOptions engine_options = options;
    engine_options.prebuilt_grid = served.snapshot->grid();
    const trajsearch::SearchEngine engine(corpus, engine_options);
    LayerReplay replay(options, &spans);
    trajsearch::QueryStats engine_total;
    const int sample = std::min(w.replay_queries, total);
    for (int i = 0; i < sample; ++i) {
      const uint64_t request = static_cast<uint64_t>(total + i) + 1;
      const TrajectoryView query = queries.queries[static_cast<size_t>(i)];
      const int excl = queries.excluded[static_cast<size_t>(i)];
      const int64_t span = spans.Open("replay.query", -1, request);
      replay.set_span_parent(span);
      trajsearch::SharedTopK topk(options.top_k);
      replay.BasePart(*served.snapshot->grid(), DatasetView(corpus), query,
                      excl, 0, &topk, request);
      const std::vector<EngineHit> replayed = replay.Finish(&topk, request);
      spans.Close(span);
      trajsearch::QueryStats stats;
      const std::vector<EngineHit> reference =
          engine.Query(query, &stats, excl);
      engine_total.candidates_after_gbp += stats.candidates_after_gbp;
      engine_total.pruned_by_bound += stats.pruned_by_bound;
      engine_total.searched += stats.searched;
      engine_total.abandoned += stats.abandoned;
      bool same = replayed.size() == reference.size();
      for (size_t h = 0; same && h < replayed.size(); ++h) {
        same = replayed[h].trajectory_id == reference[h].trajectory_id &&
               replayed[h].result == reference[h].result;
      }
      checks.Count("replay " + std::to_string(i),
                   same ? "" : "replay hits differ from SearchEngine::Query");
    }
    const LayerTally& t = replay.tally();
    std::printf("engine funnel (%d queries): candidates=%d bound_pruned=%d "
                "dp_runs=%d dp_abandoned=%d\n",
                sample, engine_total.candidates_after_gbp,
                engine_total.pruned_by_bound, engine_total.searched,
                engine_total.abandoned);
    PrintFunnels(t, after, before);
    AddServiceMetrics(setup, served, phase, after, before, &report);
    const trajsearch::ServiceStats stats = service.Stats();
    report.Add("service.compactions", static_cast<double>(stats.compactions),
               "count");
    report.Add("service.compaction_s", stats.compaction_seconds, "s");
    report.Add("service.compaction_wait_s", 0, "s");
    report.Add("service.rewrite_ratio", 0, "share");
    report.Add("prune.delta_grid_build_ms", 0, "ms");
    report.Add("core.delta_size_mean", 0, "count");
    AddLayerMetrics(t, after, before, &report);
    const std::string path = args.dir + "/spans.jsonl";
    if (!spans.Write(path)) std::printf("could not write %s\n", path.c_str());
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
  }
  std::printf("timed phase: %d calls, %lld queries in %.3f s\n", calls,
              static_cast<long long>(phase.queries), phase.wall_s);
  report.Print(checks.failed == 0, checks.attempted, checks.failed);
  return 0;
}

/// The fresh trips porto_live appends at step `step`, from a seeded stream
/// of their own: a step's trips are generated when they are sent and again
/// when they are checked, so the run never holds all of them.
Dataset StepTrips(const Workload& w, uint64_t seed, int step) {
  return trajsearch::GenerateTaxiDataset(CorpusProfile(
      w, StreamSeed(StreamSeed(seed, kFreshStream), static_cast<uint64_t>(step)),
      w.append_batch));
}

/// porto_live: each step appends a batch of fresh trips, then sends
/// kLiveCallsPerStep SubmitBatch calls drawn with repetition from a hot set
/// of fresh-trip windows; the first call also carries the just-appended
/// last trip, unchanged. Auto-compaction runs at its default threshold.
int RunLive(const Workload& w, const Args& args) {
  SpanLog spans(args.trace);
  const int steps = args.seconds * w.calls_per_second;
  const EngineOptions options = ServingEngineOptions(w);
  // Hot-set and probe windows come from their own seeded streams; twice the
  // needed trips are generated because short trips are ineligible.
  const Dataset hot_trips = trajsearch::GenerateTaxiDataset(CorpusProfile(
      w, StreamSeed(args.seed, kHotStream), 2 * w.hot_set));
  const QuerySet hot = SampleWindows(hot_trips, w.hot_set, w.query_min,
                                     w.query_max,
                                     StreamSeed(args.seed, kHotStream) + 1,
                                     /*exclude_source=*/false);
  const Dataset probe_trips = trajsearch::GenerateTaxiDataset(CorpusProfile(
      w, StreamSeed(args.seed, kProbeStream), 2 * w.exact_sample));
  const QuerySet probes = SampleWindows(
      probe_trips, w.exact_sample, w.query_min, w.query_max,
      StreamSeed(args.seed, kProbeStream) + 1, /*exclude_source=*/false);
  QuerySet warmup;
  {
    trajsearch::Result<MmapSnapshot> sample =
        MmapSnapshot::Open(SnapshotPath(args));
    if (!sample.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   sample.status().ToString().c_str());
      return 1;
    }
    warmup = SampleWindows(sample.value().dataset(), w.batch, w.query_min,
                           w.query_max, StreamSeed(args.seed, kWarmupStream),
                           /*exclude_source=*/true);
  }

  std::vector<SetupTimes> setup;
  Served served = RepeatedSetUp(w, args, warmup, &spans, &setup);
  QueryService& service = *served.service;
  const double cell = served.snapshot->grid()->cell_size();
  const int base_size = service.corpus_size();
  // The exact_share probes are served beside the largest delta the timed
  // phase serves before an append triggers compaction.
  const int probe_delta =
      static_cast<int>(MakeServiceOptions(w, nullptr).compact_delta_trajectories) -
      w.append_batch;

  struct Answer {
    TrajectoryView query;  // empty for the just-appended trip
    std::vector<EngineHit> hits;
    bool just_appended;
  };
  std::vector<Answer> answers;
  answers.reserve(static_cast<size_t>(steps) * kLiveCallsPerStep * w.batch);
  std::vector<std::vector<int>> appended_ids;
  std::vector<double> delta_sizes;
  std::vector<double> grid_build_ms;
  trajsearch::Rng pick(StreamSeed(args.seed, kQueryStream));
  const int replay_every = std::max(1, steps / std::max(1, w.replay_queries));
  LayerReplay replay(options, &spans);
  std::unique_ptr<trajsearch::GridIndex> replay_base_grid;
  uint64_t replay_base_generation = 0;
  Checks checks;
  uint64_t seen_base_generation = 0;
  double rewritten_points = 0;
  double generate_s = 0;
  const size_t compact_threshold =
      MakeServiceOptions(w, nullptr).compact_delta_trajectories;
  int compaction_step = -1;  // step whose append scheduled a compaction
  uint64_t compaction_target = 0;  // Stats().compactions once it is adopted
  int early_adoptions = 0;  // compactions adopted before the wait
  double stall_s = 0;

  Phase phase;
  const trajsearch::obs::RegistrySnapshot before = service.metrics().Snapshot();
  const trajsearch::ServiceStats stats_before = service.Stats();
  const double cpu0 = CpuSeconds();
  Stopwatch wall;
  std::vector<TrajectoryView> q;
  const std::vector<int> no_exclusion(static_cast<size_t>(w.batch), -1);
  uint64_t request = 0;
  for (int s = 0; s < steps; ++s) {
    // The step's trips are generated inside the timed phase, by the client
    // thread; the run prints the share of the phase this takes.
    Stopwatch generate;
    const Dataset step_trips = StepTrips(w, args.seed, s);
    generate_s += generate.Seconds();
    phase.op_start_s.push_back(wall.Seconds());
    phase.op_queries.push_back(kLiveCallsPerStep * w.batch);
    std::vector<TrajectoryView> trips;
    for (int i = 0; i < w.append_batch; ++i) trips.push_back(step_trips[i]);
    if (compaction_step >= 0 && s == compaction_step + kCompactionWindow) {
      // Backpressure: the pending compaction is adopted before this append.
      Stopwatch stall;
      if (service.Stats().compactions >= compaction_target) ++early_adoptions;
      while (service.Stats().compactions < compaction_target &&
             stall.Seconds() < kCompactionTimeoutS) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      checks.Count("compaction scheduled at step " +
                       std::to_string(compaction_step),
                   service.Stats().compactions >= compaction_target
                       ? ""
                       : "not adopted within the timeout");
      stall_s += stall.Seconds();
      compaction_step = -1;
    }
    const uint64_t compactions_before_append = service.Stats().compactions;
    {
      const bool traced = spans.enabled() && s % 2 == 0;
      Stopwatch call;
      const int64_t span =
          traced ? spans.Open("QueryService::AppendBatch", -1, ++request) : -1;
      appended_ids.push_back(service.AppendBatch(trips));
      spans.Close(span);
      phase.append_ms.push_back(call.Millis());
    }
    if (compaction_step < 0 && static_cast<size_t>(
                                   service.Shape().delta_trajectories) >=
                                   compact_threshold) {
      compaction_step = s;
      compaction_target = compactions_before_append + 1;
    }
    for (int c = 0; c < kLiveCallsPerStep; ++c) {
      q.clear();
      if (c == 0) q.push_back(trips.back());
      while (static_cast<int>(q.size()) < w.batch) {
        q.push_back(hot.queries[static_cast<size_t>(
            pick.UniformInt(0, w.hot_set - 1))]);
      }
      delta_sizes.push_back(service.Shape().delta_trajectories);
      const bool traced =
          spans.enabled() && (s * kLiveCallsPerStep + c) % 2 == 0;
      Stopwatch call;
      const int64_t span =
          traced ? spans.Open(CallName(w), -1, ++request) : -1;
      std::vector<std::vector<EngineHit>> hits =
          service.SubmitBatch(q, no_exclusion);
      spans.Close(span);
      const double ms = call.Millis();
      phase.call_ms.push_back(ms);
      (traced ? phase.traced_ms : phase.untraced_ms).push_back(ms);
      for (int i = 0; i < w.batch; ++i) {
        const bool just_appended = c == 0 && i == 0;
        answers.push_back(Answer{
            just_appended ? TrajectoryView() : q[static_cast<size_t>(i)],
            std::move(hits[static_cast<size_t>(i)]), just_appended});
      }
      phase.queries += w.batch;
    }
    const uint64_t base_generation = service.Shape().base_generation;
    if (base_generation != seen_base_generation) {
      // Compaction rewrote the whole merged corpus into a new base.
      rewritten_points +=
          static_cast<double>(base_generation - seen_base_generation) *
          static_cast<double>(service.View().base().point_count());
      seen_base_generation = base_generation;
    }
    if (spans.enabled() && s % replay_every == replay_every - 1) {
      // Layer replay over the pinned generation: the base through its CSR
      // grid, the delta through a DeltaGridIndex built here, as the
      // service builds one lazily per generation.
      const CorpusView view = service.View();
      const trajsearch::GridIndex* base_grid = served.snapshot->grid();
      if (view.base_generation() != 0) {
        if (replay_base_grid == nullptr ||
            replay_base_generation != view.base_generation()) {
          replay_base_grid = std::make_unique<trajsearch::GridIndex>(
              DatasetView(view.base()), cell);
          replay_base_generation = view.base_generation();
        }
        base_grid = replay_base_grid.get();
      }
      ++request;
      const int64_t parent = spans.Open("replay.query", -1, request);
      replay.set_span_parent(parent);
      const int64_t build = spans.Open("DeltaGridIndex::Add", parent, request);
      Stopwatch build_watch;
      trajsearch::DeltaGridIndex delta_grid(cell);
      for (int i = 0; i < view.delta_size(); ++i) {
        delta_grid.Add(view.delta()[i]);
      }
      grid_build_ms.push_back(build_watch.Millis());
      spans.Close(build);
      const TrajectoryView query =
          hot.queries[static_cast<size_t>(s % w.hot_set)];
      trajsearch::SharedTopK topk(options.top_k);
      replay.BasePart(*base_grid, DatasetView(view.base()), query, -1, 0,
                      &topk, request);
      if (view.delta_size() > 0) {
        replay.DeltaPart(delta_grid, view.delta(), query, view.base_size(),
                         &topk, request);
      }
      const std::vector<EngineHit> replayed = replay.Finish(&topk, request);
      spans.Close(parent);
      checks.Count("replay at step " + std::to_string(s),
                   CheckHits(options.spec, query, -1, options.top_k,
                             replayed, ViewLookup(view)));
    }
  }
  phase.wall_s = wall.Seconds();
  phase.cpu_s = CpuSeconds() - cpu0;
  const double memory_mib = PeakRssMiB();
  const trajsearch::obs::RegistrySnapshot after = service.metrics().Snapshot();
  const trajsearch::ServiceStats stats_after = service.Stats();
  // Drain any background compaction (and fold the remaining delta) so the
  // checks and the reference below run on a quiet three-thread budget.
  service.Compact();

  // Checks, step by step with the step's trips generated again: every
  // appended id is the next corpus id and holds its trip; each answer is
  // valid; each just-appended trip comes back at distance 0.
  const CorpusView final_view = service.View();
  const TrajectoryLookup lookup = ViewLookup(final_view);
  const size_t answers_per_step =
      static_cast<size_t>(kLiveCallsPerStep) * static_cast<size_t>(w.batch);
  for (int s = 0; s < steps; ++s) {
    const Dataset trips = StepTrips(w, args.seed, s);
    const std::vector<int>& ids = appended_ids[static_cast<size_t>(s)];
    for (int i = 0; i < w.append_batch; ++i) {
      const int expected = base_size + s * w.append_batch + i;
      const TrajectoryView trip = trips[i];
      std::string defect;
      if (static_cast<int>(ids.size()) != w.append_batch ||
          ids[static_cast<size_t>(i)] != expected) {
        defect = "append returned an unexpected id";
      } else if (expected >= final_view.size() ||
                 final_view[expected].size() != static_cast<int>(trip.size()) ||
                 std::memcmp(final_view[expected].View().data(), trip.data(),
                             trip.size_bytes()) != 0) {
        defect = "appended trajectory not stored as sent";
      }
      checks.Count("append " + std::to_string(expected), defect);
    }
    const TrajectoryView last_trip = trips[w.append_batch - 1];
    for (size_t i = static_cast<size_t>(s) * answers_per_step;
         i < static_cast<size_t>(s + 1) * answers_per_step; ++i) {
      const Answer& a = answers[i];
      std::string defect =
          CheckHits(options.spec, a.just_appended ? last_trip : a.query, -1,
                    options.top_k, a.hits, lookup);
      if (defect.empty() && a.just_appended &&
          a.hits[0].result.distance != 0) {
        defect = "just-appended trip not found at distance 0";
      }
      checks.Count("query " + std::to_string(i), defect);
    }
  }

  Report report;
  if (!args.trace) {
    // exact_share: fresh probe windows served while a delta is live, so the
    // delta grid and DeltaEngine answer them beside the base. One untimed
    // append puts probe_delta fresh trips in the delta, below the
    // compaction threshold; the reference searches the merged view the
    // probes were served on.
    const Dataset delta_trips = trajsearch::GenerateTaxiDataset(CorpusProfile(
        w, StreamSeed(args.seed, kProbeDeltaStream), probe_delta));
    std::vector<TrajectoryView> delta_batch;
    for (int i = 0; i < delta_trips.size(); ++i) {
      delta_batch.push_back(delta_trips[i]);
    }
    service.AppendBatch(delta_batch);
    const CorpusView probe_view = service.View();
    const TrajectoryLookup probe_lookup = ViewLookup(probe_view);
    checks.Count("probe delta",
                 probe_view.delta_size() == probe_delta
                     ? ""
                     : "the probes are not served beside a delta of " +
                           std::to_string(probe_delta));
    std::vector<TrajectoryView> probe_q;
    for (const Trajectory& t : probes.queries) probe_q.push_back(t);
    std::vector<std::optional<double>> served_top1;
    for (size_t begin = 0; begin < probe_q.size();
         begin += static_cast<size_t>(w.batch)) {
      const size_t end =
          std::min(probe_q.size(), begin + static_cast<size_t>(w.batch));
      const std::vector<TrajectoryView> chunk(probe_q.begin() + begin,
                                              probe_q.begin() + end);
      const std::vector<std::vector<EngineHit>> hits =
          service.SubmitBatch(chunk, std::vector<int>(chunk.size(), -1));
      for (size_t i = 0; i < chunk.size(); ++i) {
        const std::string defect = CheckHits(
            options.spec, chunk[i], -1, options.top_k, hits[i], probe_lookup);
        checks.Count("probe " + std::to_string(begin + i), defect);
        served_top1.push_back(
            defect.empty() ? std::optional<double>(hits[i][0].result.distance)
                           : std::nullopt);
      }
    }
    const Dataset merged = trajsearch::LiveDataset::Merge(probe_view);
    Stopwatch exact_watch;
    int best_in_delta = 0;
    const double exact_share = ExactShare(
        w, merged, probe_q, std::vector<int>(probe_q.size(), -1), served_top1,
        probe_view.base_size(), &best_in_delta);
    std::printf("exact_share: %zu queries against the unpruned engine in "
                "%.2f s; %d of them have their unpruned top-1 in the "
                "%d-trajectory delta\n",
                probe_q.size(), exact_watch.Seconds(), best_in_delta,
                probe_view.delta_size());
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup) setup_s.push_back(t.total_s);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("qps",
               WindowedRate(phase.op_start_s, phase.wall_s, phase.op_queries),
               "1/s");
    report.AddPercentile("latency_p50_ms", phase.call_ms, 50, "ms");
    report.AddPercentile("latency_p90_ms", phase.call_ms, 90, "ms");
    report.AddPercentile("append_p50_ms", phase.append_ms, 50, "ms");
    report.AddPercentile("append_p90_ms", phase.append_ms, 90, "ms");
    report.Add("memory_mb", memory_mib, "MiB");
    report.Add("exact_share", exact_share, "share");
  } else {
    PrintFunnels(replay.tally(), after, before);
    AddServiceMetrics(setup, served, phase, after, before, &report);
    report.Add("service.compactions",
               static_cast<double>(stats_after.compactions -
                                   stats_before.compactions),
               "count");
    report.Add("service.compaction_s",
               stats_after.compaction_seconds - stats_before.compaction_seconds,
               "s");
    report.Add("service.compaction_wait_s", stall_s, "s");
    const double appended = static_cast<double>(
        stats_after.appended_points - stats_before.appended_points);
    report.Add("service.rewrite_ratio",
               appended > 0 ? rewritten_points / appended : 0, "share");
    report.Add("prune.delta_grid_build_ms", Median(grid_build_ms), "ms");
    double delta_sum = 0;
    for (const double d : delta_sizes) delta_sum += d;
    report.Add("core.delta_size_mean",
               delta_sizes.empty()
                   ? 0
                   : delta_sum / static_cast<double>(delta_sizes.size()),
               "count");
    AddLayerMetrics(replay.tally(), after, before, &report);
    const std::string path = args.dir + "/spans.jsonl";
    if (!spans.Write(path)) std::printf("could not write %s\n", path.c_str());
    std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
  }
  {
    // The first call of a step follows the append and carries the
    // just-appended trip; the later ones read the same generation.
    std::vector<double> first, later;
    for (size_t i = 0; i < phase.call_ms.size(); ++i) {
      (i % kLiveCallsPerStep == 0 ? first : later).push_back(phase.call_ms[i]);
    }
    std::printf("call latency p50: first call of a step %.3f ms, later "
                "calls %.3f ms\n", Median(first), Median(later));
  }
  std::printf("timed phase: %d steps, %lld queries, %d appends in %.3f s "
              "(%.3f s of it generating the appended trips); %llu "
              "compactions; %.3f s waiting for them, %d adopted before the "
              "wait\n",
              steps, static_cast<long long>(phase.queries), steps,
              phase.wall_s, generate_s,
              static_cast<unsigned long long>(stats_after.compactions -
                                              stats_before.compactions),
              stall_s, early_adoptions);
  report.Print(checks.failed == 0, checks.attempted, checks.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef M_MMAP_THRESHOLD
  // A fixed mmap threshold turns off glibc's dynamic one, which rises
  // whenever a large block is freed. With it on, whether porto_live's
  // compaction buffers were mapped or carved from a heap, and so the peak
  // RSS, varied with thread timing: 368-496 MiB over three runs of one seed.
  // 1 MiB maps every compaction buffer (three seeds then peaked within 1%
  // of each other) and keeps the smaller blocks an append frees in the
  // heap: at glibc's 128 KiB starting value, appends paid for unmapping,
  // and their latency spread widened (NOTES.md).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());
  if (args.mode == "prepare") return Prepare(*w, args);
  if (args.mode != "run") Usage("mode must be prepare or run");
  return w->append_batch > 0 ? RunLive(*w, args) : RunSampled(*w, args);
}
