#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>

#include "obs/metrics.h"
#include "search/query_run.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> all;
    Workload batch;
    batch.name = "porto_batch";
    batch.profile = "porto";
    batch.corpus_size = 200000;
    batch.query_min = 8;
    batch.query_max = 12;
    batch.distance = "dtw";
    batch.batch = 32;
    batch.calls_per_second = 42;
    batch.exact_sample = 300;
    batch.setup_repeats = 15;
    batch.replay_queries = 64;
    all.push_back(batch);

    Workload single;
    single.name = "xian_single";
    single.profile = "xian";
    single.corpus_size = 20000;
    single.query_min = 100;
    single.query_max = 120;
    single.distance = "edr";
    single.edr_epsilon = 0.001;  // ~100 m, the Xi'an convention of bench/
    single.batch = 1;
    single.calls_per_second = 240;
    single.exact_sample = 40;
    single.setup_repeats = 5;
    single.replay_queries = 16;
    all.push_back(single);

    Workload live;
    live.name = "porto_live";
    live.profile = "porto";
    live.corpus_size = 20000;
    live.query_min = 8;
    live.query_max = 12;
    live.distance = "dtw";
    live.batch = 32;
    live.calls_per_second = 50;  // steps: AppendBatch + 3 SubmitBatch
    live.exact_sample = 200;
    live.setup_repeats = 31;
    live.replay_queries = 16;
    live.append_batch = 16;
    live.hot_set = 64;
    all.push_back(live);
    return all;
  }();
  return workloads;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

trajsearch::TaxiProfile CorpusProfile(const Workload& workload, uint64_t seed,
                                      int count) {
  trajsearch::TaxiProfile profile = workload.profile == "xian"
                                        ? trajsearch::XianProfile(count)
                                        : trajsearch::PortoProfile(count);
  profile.seed = seed;
  return profile;
}

EngineOptions ServingEngineOptions(const Workload& workload) {
  EngineOptions options;
  options.spec = workload.distance == "edr"
                     ? DistanceSpec::Edr(workload.edr_epsilon)
                     : DistanceSpec::Dtw();
  options.algorithm = trajsearch::Algorithm::kCma;
  options.top_k = 1;
  options.threads = 1;
  return options;
}

QuerySet SampleWindows(const Dataset& corpus, int count, int min_len,
                       int max_len, uint64_t seed, bool exclude_source) {
  std::vector<int> eligible;
  for (int id = 0; id < corpus.size(); ++id) {
    if (corpus.length(id) >= min_len) eligible.push_back(id);
  }
  TRAJ_CHECK(static_cast<int>(eligible.size()) >= count);
  trajsearch::Rng rng(seed);
  QuerySet set;
  set.queries.reserve(static_cast<size_t>(count));
  set.excluded.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Partial Fisher-Yates: distinct sources, uniformly drawn.
    const int pick = static_cast<int>(
        rng.UniformInt(i, static_cast<int64_t>(eligible.size()) - 1));
    std::swap(eligible[static_cast<size_t>(i)],
              eligible[static_cast<size_t>(pick)]);
    const int id = eligible[static_cast<size_t>(i)];
    const int n = corpus.length(id);
    const int len =
        static_cast<int>(rng.UniformInt(min_len, std::min(max_len, n)));
    const int start = static_cast<int>(rng.UniformInt(0, n - len));
    set.queries.emplace_back(corpus[id].View().subspan(
        static_cast<size_t>(start), static_cast<size_t>(len)));
    set.excluded.push_back(exclude_source ? id : -1);
  }
  return set;
}

std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         double p, int max_windows) {
  const size_t n = samples.size();
  int windows = static_cast<int>(std::floor(static_cast<double>(n) *
                                            (1 - p / 100.0) / 10.0));
  for (windows = std::clamp(windows, 1, max_windows); windows >= 1;
       --windows) {
    std::vector<double> values;
    for (int k = 0; k < windows; ++k) {
      const std::optional<double> v = ReportablePercentile(
          std::vector<double>(samples.begin() + n * k / windows,
                              samples.begin() + n * (k + 1) / windows),
          p);
      if (!v.has_value()) break;
      values.push_back(*v);
    }
    if (static_cast<int>(values.size()) == windows) return Median(values);
  }
  return std::nullopt;
}

double WindowedRate(const std::vector<double>& op_start_s, double end_s,
                    const std::vector<int>& op_queries, int max_windows) {
  const size_t n = op_start_s.size();
  const int windows =
      std::clamp(static_cast<int>(n), 1, max_windows);
  std::vector<double> rates;
  for (int k = 0; k < windows; ++k) {
    const size_t begin = n * k / windows;
    const size_t end = n * (k + 1) / windows;
    const double stop = end < n ? op_start_s[end] : end_s;
    double queries = 0;
    for (size_t i = begin; i < end; ++i) queries += op_queries[i];
    if (stop > op_start_s[begin]) {
      rates.push_back(queries / (stop - op_start_s[begin]));
    }
  }
  return Median(rates);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string CheckHits(const DistanceSpec& spec, TrajectoryView query,
                      int excluded_id, int k,
                      const std::vector<EngineHit>& hits,
                      const TrajectoryLookup& lookup) {
  if (hits.empty() || static_cast<int>(hits.size()) > k) {
    return "answer has " + std::to_string(hits.size()) + " hits, want 1.." +
           std::to_string(k);
  }
  for (const EngineHit& hit : hits) {
    const std::string where = "hit id " + std::to_string(hit.trajectory_id);
    if (hit.trajectory_id == excluded_id) return where + " is the excluded id";
    const std::optional<TrajectoryView> data = lookup(hit.trajectory_id);
    if (!data.has_value()) return where + " is not a corpus id";
    const int n = static_cast<int>(data->size());
    if (!hit.result.range.WithinLength(n)) {
      return where + " range " + hit.result.range.ToString() +
             " is not inside its " + std::to_string(n) + " points";
    }
    const double distance = hit.result.distance;
    if (!std::isfinite(distance)) return where + " distance is not finite";
    const double full = trajsearch::FullDistance(
        spec, query,
        data->subspan(static_cast<size_t>(hit.result.range.start),
                      static_cast<size_t>(hit.result.range.Length())));
    if (std::memcmp(&full, &distance, sizeof(double)) != 0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), " distance %.17g != FullDistance %.17g",
                    distance, full);
      return where + buf;
    }
  }
  return "";
}

int64_t SpanLog::Open(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = trajsearch::obs::NowNanos();
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Close(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = trajsearch::obs::NowNanos();
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

LayerReplay::LayerReplay(const EngineOptions& options, SpanLog* spans)
    : options_(options), spans_(spans) {
  // The replay mirrors the engine's one-candidate-at-a-time path, which the
  // engine takes exactly when the KPF estimate is sampled (see engine.cc).
  TRAJ_CHECK(options_.use_gbp && options_.use_kpf && !options_.use_osf);
  TRAJ_CHECK(options_.sample_rate < 1.0);
  TRAJ_CHECK(options_.order_candidates && options_.share_threshold);
  TRAJ_CHECK(options_.use_early_abandon && options_.threads <= 1);
  searcher_ = trajsearch::MakeEngineSearcher(options_);
  run_ = searcher_->NewRun();
}

namespace {

/// Times one call into a layer: adds its duration to `*ns` and, when the
/// span log is on, records it as a span.
template <typename Fn>
auto Timed(SpanLog* spans, const char* name, int64_t parent, uint64_t request,
           int64_t* ns, Fn&& fn) {
  const int64_t index = spans->Open(name, parent, request);
  const int64_t start = trajsearch::obs::NowNanos();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *ns += trajsearch::obs::NowNanos() - start;
    spans->Close(index);
  } else {
    auto result = fn();
    *ns += trajsearch::obs::NowNanos() - start;
    spans->Close(index);
    return result;
  }
}

}  // namespace

template <typename Source>
void LayerReplay::Evaluate(const std::vector<int>& candidates,
                           const Source& source, int excluded, int id_offset,
                           trajsearch::SharedTopK* topk, uint64_t request) {
  using trajsearch::kNoCutoff;
  for (const int id : candidates) {
    if (id == excluded) {
      ++tally_.skipped;
      continue;
    }
    const TrajectoryView data = source[id];
    if (data.empty()) {
      ++tally_.skipped;
      continue;
    }
    if (topk->Cutoff() != kNoCutoff) {
      const double lower =
          Timed(spans_, "KpfBoundPlan::LowerBound", parent_, request,
                &tally_.bound_ns, [&] { return bound_.LowerBound(data); });
      if (topk->ShouldPrune(lower, id + id_offset)) {
        ++tally_.bound_pruned;
        continue;
      }
    }
    const double cutoff = topk->Cutoff();
    const trajsearch::SearchResult result =
        Timed(spans_, "QueryRun::RunCols", parent_, request, &tally_.dp_ns,
              [&] { return run_->RunCols(data, source.cols(id), cutoff); });
    if (cutoff != kNoCutoff && result.distance >= cutoff) {
      ++tally_.dp_abandoned;
    }
    Timed(spans_, "SharedTopK::Offer", parent_, request, &tally_.merge_ns,
          [&] { topk->Offer(EngineHit{id + id_offset, result}); });
    ++tally_.dp_runs;
  }
  const trajsearch::simd::CellCounts cells = run_->TakeSimdStats();
  tally_.vector_cells += cells.vector_cells;
  tally_.scalar_cells += cells.scalar_cells;
  tally_.lane_abandons += cells.lane_abandons;
}

void LayerReplay::BasePart(const trajsearch::GridIndex& grid,
                           DatasetView data, TrajectoryView query,
                           int excluded_local, int id_offset,
                           trajsearch::SharedTopK* topk, uint64_t request) {
  Timed(spans_, "GridIndex::OrderedCandidates", parent_, request, &tally_.gbp_ns,
        [&] { grid.OrderedCandidates(query, options_.mu, &candidates_); });
  tally_.candidates += static_cast<int64_t>(candidates_.size());
  // SearchEngine binds its bound plan for every non-empty query, and its
  // DP plan only when there is a candidate to evaluate.
  if (query.empty()) return;
  Timed(spans_, "KpfBoundPlan::Bind", parent_, request, &tally_.bound_ns, [&] {
    bound_.Bind(options_.spec, query, options_.sample_rate);
  });
  if (candidates_.empty()) return;
  Timed(spans_, "QueryRun::Bind", parent_, request, &tally_.dp_ns,
        [&] { run_->Bind(query); });
  Evaluate(candidates_, data, excluded_local, id_offset, topk, request);
}

void LayerReplay::DeltaPart(const trajsearch::DeltaGridIndex& grid,
                            const trajsearch::DeltaView& delta,
                            TrajectoryView query, int id_offset,
                            trajsearch::SharedTopK* topk, uint64_t request) {
  Timed(spans_, "DeltaGridIndex::OrderedCandidates", parent_, request,
        &tally_.gbp_ns,
        [&] { grid.OrderedCandidates(query, options_.mu, &candidates_); });
  tally_.candidates += static_cast<int64_t>(candidates_.size());
  // DeltaEngine binds both plans only when the delta yields candidates.
  if (query.empty() || candidates_.empty()) return;
  Timed(spans_, "KpfBoundPlan::Bind", parent_, request, &tally_.bound_ns, [&] {
    bound_.Bind(options_.spec, query, options_.sample_rate);
  });
  Timed(spans_, "QueryRun::Bind", parent_, request, &tally_.dp_ns,
        [&] { run_->Bind(query); });
  Evaluate(candidates_, delta, /*excluded=*/-1, id_offset, topk, request);
}

std::vector<EngineHit> LayerReplay::Finish(trajsearch::SharedTopK* topk,
                                           uint64_t request) {
  ++tally_.queries;
  return Timed(spans_, "SharedTopK::Sorted", parent_, request, &tally_.merge_ns,
               [&] { return topk->Sorted(); });
}

double PeakRssMiB() {
  // ru_maxrss is the kernel's VmHWM, in KiB on Linux.
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
