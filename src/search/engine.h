#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/dataset.h"
#include "obs/registry.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/plan_pool.h"
#include "search/searcher.h"

namespace trajsearch {

class SharedTopK;
class ThreadPool;

/// \brief Configuration of the database-level search pipeline (Algorithm 3):
/// GBP candidate filter -> KPF lower-bound filter -> per-trajectory search.
struct EngineOptions {
  DistanceSpec spec;
  Algorithm algorithm = Algorithm::kCma;
  /// Grid-Based Pruning on/off.
  bool use_gbp = true;
  /// Key Points Filter on/off.
  bool use_kpf = true;
  /// Replaces KPF's sampled bound with the OSF comparator (full bound).
  bool use_osf = false;
  /// GBP grid cell side (the paper's epsilon); 0 derives bbox width / 256.
  /// The engine never writes the derived value back — options() always
  /// returns what the caller passed; read the actual cell side from
  /// grid()->stats().cell_size.
  double cell_size = 0;
  /// GBP close-count fraction mu in (0, 1) (paper default 0.4).
  double mu = 0.4;
  /// KPF key-point sampling rate r (paper default 0.05).
  double sample_rate = 0.05;
  /// Number of results to return (top-K, Appendix E).
  int top_k = 1;
  /// Trained policy for kRls / kRlsSkip (optional; untrained if null).
  const RlsPolicy* rls_policy = nullptr;
  /// Worker threads for the search stage (1 = the paper's serial pipeline).
  /// Candidates are processed in chunks pulled from a shared counter by up
  /// to `threads` workers: the calling thread plus tasks on the scheduler
  /// pool. The same rule holds for the base shards and the live delta. By
  /// default all workers prune against one global SharedTopK. Results are
  /// identical to the serial engine whenever the bound is sound (KPF at
  /// sample_rate 1.0, OSF, or bounds off) — a *sampled* KPF estimate may
  /// prune differently depending on when the shared threshold tightened.
  int threads = 1;
  /// Threads the live top-K threshold (SharedTopK::Cutoff()) into
  /// QueryRun::Run as an early-abandon cutoff. Results are identical either
  /// way — the plans only abandon work that provably cannot beat the
  /// threshold — so this exists for benchmarking/ablation, like `threads`.
  bool use_early_abandon = true;
  /// All workers of one query (and, under the service, all shards) prune
  /// against one global SharedTopK threshold. When false, each worker keeps
  /// a private SharedTopK (merged canonically at the end) and the service
  /// merges per-part top-Ks — a strictly weaker abandon threshold,
  /// kept as a benchmarking/ablation baseline; candidates then always run
  /// in ascending id order (`order_candidates` is ignored), like the
  /// per-worker-heap design it models. Results are identical either way
  /// under a sound bound; under a *sampled* estimate the shared threshold's
  /// tightening time depends on thread interleaving, so threaded/sharded
  /// results can additionally vary run to run — use sample_rate = 1.0 or
  /// OSF where determinism matters.
  bool share_threshold = true;
  /// Evaluate candidates most-promising-first (descending GBP close count;
  /// with GBP off, ascending KPF/OSF lower bound) instead of ascending id,
  /// so the top-K threshold tightens early and prunes the tail. Applies to
  /// the shared-threshold pipeline only (see share_threshold). The
  /// candidate *set* and, under a sound bound, the results are unchanged;
  /// with a *sampled* KPF estimate the evaluation order can change which
  /// candidates the estimate prunes (same caveat as `threads`).
  bool order_candidates = true;
  /// Scheduler pool for the multi-threaded search stage; null uses the
  /// process-wide DefaultScheduler(). The QueryService injects its own pool
  /// here so shard fan-out and per-query workers share one thread set
  /// (never hashed into options fingerprints; not owned).
  ThreadPool* scheduler = nullptr;
  /// Metrics registry the engine folds its pruning funnel into
  /// (`engine.<Algorithm>.funnel.*` counters, once per QueryInto). Null
  /// disables funnel export entirely. Observability-only: never hashed into
  /// options fingerprints; not owned.
  obs::Registry* metrics = nullptr;
  /// A prebuilt GBP index to serve from instead of building one — the
  /// zero-copy path for the grid section of a mapped v4 snapshot. Used only
  /// when it provably matches what the engine would build itself: use_gbp is
  /// on, the engine's view is the whole corpus the index covers
  /// (begin_id() == 0 and size() == prebuilt_grid->dataset_size()) and the
  /// cell side equals the one this engine derives; otherwise the engine
  /// silently builds its own (per-shard views always do). Must outlive the
  /// engine; not owned; never hashed into options fingerprints.
  const GridIndex* prebuilt_grid = nullptr;
};

/// \brief One result of a database query.
struct EngineHit {
  int trajectory_id = -1;
  SearchResult result;
};

/// \brief Timing/pruning breakdown of one query (feeds Figures 9-11).
///
/// Every field has one definition whatever `threads` is. Times marked CPU
/// are summed across the query's workers; with one worker they equal
/// wall-clock.
struct QueryStats {
  /// Pruning time: gbp_seconds + bound_seconds, exactly (CPU).
  double prune_seconds = 0;
  /// Wall-clock of the worker stage — bound checks, per-pair searches and
  /// top-K offers, from the first worker's start to the last one's end.
  double search_seconds = 0;
  /// Time in KPF/OSF bound checks alone, including the bound-ordering
  /// pre-pass when GBP is off (CPU).
  double bound_seconds = 0;
  /// Time in per-pair QueryRun::RunCols / RunBatch calls alone (CPU).
  double pair_search_seconds = 0;
  /// Candidate-generation time alone: GBP, or the identity scan with GBP
  /// off.
  double gbp_seconds = 0;
  int candidates_after_gbp = 0;
  int pruned_by_bound = 0;
  int searched = 0;
  /// Candidates dropped before any bound math: the excluded query id and
  /// empty trajectories. candidates_after_gbp == skipped + pruned_by_bound
  /// + searched, always.
  int skipped = 0;
  /// Searched candidates whose result landed at or above the early-abandon
  /// cutoff captured before the run — DP work the plan abandoned early, or
  /// a completed result the top-K merge then discarded — or found no
  /// subtrajectory at all. searched == abandoned + (hits that were
  /// competitive when computed).
  int abandoned = 0;
  /// DP cells evaluated through the SIMD column/batch kernels (full lane
  /// groups; batch kernels count per live lane) vs. scalar iterations (tail
  /// lanes, or whole sweeps when dispatch picked the scalar path); summed
  /// across workers. Their sum is dispatch-invariant.
  uint64_t simd_vector_cells = 0;
  uint64_t simd_scalar_cells = 0;
  /// Batch-kernel lanes retired early by the shared cutoff (per-lane
  /// SweepLowerBound / row-floor crossings); 0 under scalar dispatch, where
  /// the same abandons surface as shorter sweeps.
  uint64_t simd_lane_abandons = 0;
};

/// \brief Resolved `engine.<Algorithm>.funnel.*` counters of one
/// CandidatePipeline (SearchEngine and DeltaEngine fold into the same
/// per-algorithm funnel). All-null when constructed without a registry,
/// making Fold a no-op.
struct FunnelCounters {
  FunnelCounters() = default;
  FunnelCounters(obs::Registry* registry, Algorithm algorithm);

  /// Adds one query's pruning funnel (a handful of relaxed atomic adds).
  void Fold(const QueryStats& stats) const;

  obs::Counter* queries = nullptr;
  obs::Counter* candidates = nullptr;
  obs::Counter* skipped = nullptr;
  obs::Counter* bound_pruned = nullptr;
  obs::Counter* dp_runs = nullptr;
  obs::Counter* dp_abandoned = nullptr;
  obs::Counter* dp_completed = nullptr;
  /// `engine.<Algorithm>.simd.*` kernel-dispatch counters (not part of the
  /// funnel namespace, so funnel extraction/telescoping is unaffected).
  obs::Counter* simd_vector_cells = nullptr;
  obs::Counter* simd_scalar_cells = nullptr;
  obs::Counter* simd_lane_abandons = nullptr;
};

/// \brief The database-level search pipeline (Algorithm 3), shared by
/// SearchEngine (base corpus) and DeltaEngine (a live corpus's delta).
///
/// Run() takes one candidate source — a DatasetView with its GridIndex, or
/// a DeltaView with its DeltaGridIndex (null grid: every trajectory is a
/// candidate) — and runs the same stages over either:
///
///  1. candidate generation: the grid's GBP candidates, most-promising-first
///     (descending close count) when ordering is on, else the identity scan;
///  2. the bound cascade, checked against the top-K before each search:
///     with a grid, the grid pre-bound (KpfBoundPlan::GridBound, from the
///     candidate's GBP mask, before its points are read), then the KPF/OSF
///     bound for what the pre-bound left open; without a grid and with
///     ordering on, the bounds are computed once up front and the
///     candidates run in ascending-bound order;
///  3. per-trajectory search through one pooled, bind-once QueryRun per
///     worker, with the live top-K threshold as the early-abandon cutoff;
///     plans with a cross-candidate kernel evaluate pruning survivors in
///     length-sorted RunBatch groups.
///
/// Up to `threads` workers (the caller plus scheduler-pool tasks) pull
/// candidate chunks from one atomic counter; one worker is the paper's
/// serial pipeline. Hits are offered into the caller's SharedTopK with
/// `id_offset` added, or, with share_threshold off, into a private
/// SharedTopK per worker that is merged into the caller's at the end. Plans
/// and bound plans are pooled, so steady-state queries allocate nothing per
/// candidate. Safe to call concurrently.
class CandidatePipeline {
 public:
  explicit CandidatePipeline(const EngineOptions& options);

  /// Searches every candidate `source` offers for `query`. Ids in
  /// `source`, `grid` and `excluded_id` are source-local. A query without
  /// candidates binds no search plan; the bound plan is bound before
  /// candidate generation, because the grid reads its key points. A query
  /// with a NaN or infinite coordinate gets no candidates, binds nothing
  /// and leaves `topk` untouched. Instantiated
  /// for (DatasetView, GridIndex) and (DeltaView, DeltaGridIndex).
  template <typename Source, typename Grid>
  void Run(TrajectoryView query, const Source& source, const Grid* grid,
           SharedTopK* topk, int id_offset, QueryStats* stats,
           int excluded_id) const;

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  std::unique_ptr<Searcher> searcher_;
  /// Funnel counter pointers, resolved once at construction (all-null
  /// without a registry).
  FunnelCounters funnel_;
  /// Plans/bounds are grow-only pooled; steady state reuses the same plans
  /// and their scratch across queries.
  mutable PlanPool plans_;
};

/// \brief Database-level similar subtrajectory search engine.
///
/// Owns the GBP index of a DatasetView and runs the CandidatePipeline over
/// it; Query() returns the top-K most similar subtrajectories across all
/// data trajectories, maintaining a bounded heap exactly as described in
/// Appendix E.
///
/// The engine searches a DatasetView — the whole dataset in the common case,
/// or one shard's contiguous range of the shared corpus pool under the
/// service layer. Hit ids and `excluded_id` are view-local; for a
/// whole-dataset view they equal the global trajectory ids.
class SearchEngine {
 public:
  /// The viewed dataset must outlive the engine. A Dataset (or pointer to
  /// one) converts implicitly to a whole-dataset view.
  SearchEngine(DatasetView data, EngineOptions options);

  /// Runs one query; hits are sorted by ascending distance (best first).
  /// `excluded_id` removes one trajectory from the data side — used when
  /// the query was sampled from the corpus (§6.1: "the other trajectories
  /// are used as data trajectories"). Safe to call concurrently.
  std::vector<EngineHit> Query(TrajectoryView query,
                               QueryStats* stats = nullptr,
                               int excluded_id = -1) const;

  /// Runs one query against an externally owned SharedTopK, offering every
  /// hit with `id_offset` added to its view-local trajectory id. This is the
  /// service layer's entry point: all shards of one query offer into the
  /// same SharedTopK (offset = shard begin, so ids are corpus ids and the
  /// canonical tie-break is global), which makes the early-abandon cutoff
  /// the true corpus-wide K-th best instead of a per-shard one. Query() is a
  /// wrapper over this with a private SharedTopK. Safe to call concurrently.
  void QueryInto(TrajectoryView query, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  /// Exactly what the caller passed (derived values are never written back).
  const EngineOptions& options() const { return pipeline_.options(); }
  const DatasetView& data() const { return data_; }
  /// The pruning index served from (null when GBP is disabled): the
  /// caller's prebuilt_grid when it was adopted, else the engine-built one.
  /// stats().cell_size holds the derived cell side when options().cell_size
  /// was 0.
  const GridIndex* grid() const { return grid_view_; }

 private:
  DatasetView data_;
  CandidatePipeline pipeline_;
  std::unique_ptr<GridIndex> grid_;
  /// What the query path probes: options().prebuilt_grid when adopted, else
  /// grid_.get(); null with GBP off.
  const GridIndex* grid_view_ = nullptr;
};

/// Builds the per-trajectory searcher an engine's options describe: trained
/// RLS policies route through MakeRlsSearcher, everything else through
/// MakeSearcher (invalid algorithm/distance combinations are a programming
/// error here and CHECK). Used by CandidatePipeline, and by anything that
/// replays its stages.
std::unique_ptr<Searcher> MakeEngineSearcher(const EngineOptions& options);

}  // namespace trajsearch
