// Building blocks of the layered benchmark (perfbench/NOTES.md): workload
// definitions, seeded input generation, reportable percentiles, the hit
// checker, an in-memory span log, and the serial layer replay that times the
// library's public per-layer calls. main.cc drives them; harness_test.cc
// tests them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/live_dataset.h"
#include "distance/distance.h"
#include "gen/taxi.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/engine.h"
#include "search/topk.h"

namespace perfbench {

using trajsearch::Dataset;
using trajsearch::DatasetView;
using trajsearch::DistanceSpec;
using trajsearch::EngineHit;
using trajsearch::EngineOptions;
using trajsearch::Trajectory;
using trajsearch::TrajectoryView;

/// One benchmark workload. Every workload runs CMA top-1 with the default
/// GBP mu / KPF sample rate, the default 256-entry result cache, one shard,
/// engine.threads = 1 and a two-thread service pool: with the client thread
/// (which helps run its own tasks) that is three busy threads.
struct Workload {
  std::string name;
  /// "porto" or "xian" corpus profile.
  std::string profile;
  /// Trajectories in the served corpus (the live base for porto_live).
  int corpus_size = 0;
  /// Query length range of the sampled (non-live) queries.
  int query_min = 0;
  int query_max = 0;
  /// "dtw" or "edr".
  std::string distance;
  double edr_epsilon = 0;
  /// Queries per SubmitBatch call; 1 means one Submit per call.
  int batch = 32;
  /// Timed calls (porto_batch, xian_single) or steps (porto_live) issued per
  /// requested second: the operation list is fixed by the seed and
  /// --seconds alone, never by how fast the machine runs it.
  int calls_per_second = 0;
  /// Queries of the fixed exact_share sample.
  int exact_sample = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_repeats = 0;
  /// Queries replayed layer by layer in a traced run.
  int replay_queries = 0;
  /// porto_live only: trips per AppendBatch, hot-set size.
  int append_batch = 0;
  int hot_set = 0;
};

/// The three workloads, by name; null for an unknown name.
const Workload* FindWorkload(std::string_view name);

/// Independent stream seed derived from the run seed (splitmix64 mixing),
/// so every generator and sampler moves with --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Named input streams.
enum Stream : uint64_t {
  kCorpusStream = 1,
  kQueryStream = 2,
  kWarmupStream = 3,
  kFreshStream = 4,
  kHotStream = 5,
  kProbeStream = 6,
  kProbeDeltaStream = 7,
};

/// Corpus profile of a workload with every TaxiProfile seed set from `seed`.
trajsearch::TaxiProfile CorpusProfile(const Workload& workload,
                                      uint64_t seed, int count);

/// The engine options every workload serves with (service-side defaults).
EngineOptions ServingEngineOptions(const Workload& workload);

/// Queries cut out of a corpus: `count` distinct source trajectories, one
/// window of [min_len, max_len] points from each; `excluded` holds each
/// query's source id (or -1 when the queries are not from the corpus).
struct QuerySet {
  std::vector<Trajectory> queries;
  std::vector<int> excluded;
};
QuerySet SampleWindows(const Dataset& corpus, int count, int min_len,
                       int max_len, uint64_t seed, bool exclude_source);

/// Nearest-rank percentile `p` (0-100) of `samples`, or nullopt when fewer
/// than ten samples lie beyond it: a tail read off fewer samples is noise.
std::optional<double> ReportablePercentile(std::vector<double> samples,
                                           double p);
/// Interference from other tenants of a shared host comes in bursts. These
/// two estimators split the timed phase into up to `max_windows` equal
/// consecutive windows and report the median over windows, so a burst moves
/// only the windows it hits.
///
/// Median over windows of each window's ReportablePercentile, using as many
/// windows as leave ten samples beyond `p` in every one; nullopt when even a
/// single window cannot.
std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         double p, int max_windows = 5);
/// Median over windows of ops of the rate queries / wall seconds.
/// `op_start_s[i]` is when op i started and `end_s` when the last ended;
/// op i answered `op_queries[i]` queries.
double WindowedRate(const std::vector<double>& op_start_s, double end_s,
                    const std::vector<int>& op_queries, int max_windows = 5);
/// Plain median (no tail rule); 0 for no samples.
double Median(std::vector<double> samples);

/// Checks one served answer: 1..k hits, each id a live corpus id other than
/// `excluded_id`, a valid range inside its trajectory, a finite distance,
/// and a distance bit-identical to FullDistance over the hit's slice.
/// `lookup` resolves a corpus id to its points (nullopt if unknown).
/// Returns an empty string when the answer passes, else the first defect.
using TrajectoryLookup =
    std::function<std::optional<TrajectoryView>(int corpus_id)>;
std::string CheckHits(const DistanceSpec& spec, TrajectoryView query,
                      int excluded_id, int k,
                      const std::vector<EngineHit>& hits,
                      const TrajectoryLookup& lookup);

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span; returns its index (-1 when disabled). `parent` is a span
  /// index or -1; `request` groups the spans of one request.
  int64_t Open(const char* name, int64_t parent, uint64_t request);
  void Close(int64_t index);
  size_t size() const { return spans_.size(); }
  /// JSON lines: {"name","start_ns","end_ns","parent","request"}.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-layer counts and busy times accumulated by a LayerReplay.
struct LayerTally {
  int queries = 0;
  int64_t candidates = 0;
  int64_t skipped = 0;
  int64_t bound_pruned = 0;
  int64_t dp_runs = 0;
  int64_t dp_abandoned = 0;
  uint64_t vector_cells = 0;
  uint64_t scalar_cells = 0;
  uint64_t lane_abandons = 0;
  int64_t gbp_ns = 0;
  int64_t bound_ns = 0;
  int64_t dp_ns = 0;
  int64_t merge_ns = 0;
};

/// \brief Serial replay of one query through the layers' public calls:
/// GridIndex / DeltaGridIndex::OrderedCandidates, KpfBoundPlan::Bind +
/// LowerBound, Searcher::NewRun + QueryRun::Bind/RunCols, SharedTopK::Offer
/// and Sorted — the order and decisions of SearchEngine::QueryInto's
/// single-threaded stage (and DeltaEngine::QueryInto's), with every call
/// timed and counted.
///
/// It replays the sampled-KPF configuration the workloads serve (the engine
/// then evaluates candidates one at a time); options whose bound is sound
/// make the engine batch candidates and are rejected at construction. Its
/// hits must equal SearchEngine::Query's — the benchmark checks that, so a
/// drifted replay shows as a failed check instead of as wrong layer times.
class LayerReplay {
 public:
  LayerReplay(const EngineOptions& options, SpanLog* spans);

  /// One query over the base corpus part: candidates from `grid` over
  /// `data` (view-local ids; `excluded_local` is view-local, -1 for none),
  /// offered to `topk` as view id + `id_offset`.
  void BasePart(const trajsearch::GridIndex& grid, DatasetView data,
                TrajectoryView query, int excluded_local, int id_offset,
                trajsearch::SharedTopK* topk, uint64_t request);
  /// The delta part of a live corpus, as DeltaEngine evaluates it.
  void DeltaPart(const trajsearch::DeltaGridIndex& grid,
                 const trajsearch::DeltaView& delta, TrajectoryView query,
                 int id_offset, trajsearch::SharedTopK* topk,
                 uint64_t request);
  /// Drains `topk` (timed as top-K merge) and counts one replayed query.
  std::vector<EngineHit> Finish(trajsearch::SharedTopK* topk,
                                uint64_t request);

  /// Span index the replay's per-call spans hang under (-1: none).
  void set_span_parent(int64_t parent) { parent_ = parent; }
  const LayerTally& tally() const { return tally_; }

 private:
  template <typename Source>
  void Evaluate(const std::vector<int>& candidates, const Source& source,
                int excluded, int id_offset, trajsearch::SharedTopK* topk,
                uint64_t request);

  EngineOptions options_;
  SpanLog* spans_;
  std::unique_ptr<trajsearch::Searcher> searcher_;
  std::unique_ptr<trajsearch::QueryRun> run_;
  trajsearch::KpfBoundPlan bound_;
  std::vector<int> candidates_;
  LayerTally tally_;
  int64_t parent_ = -1;
};

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMiB();

}  // namespace perfbench
