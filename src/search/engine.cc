#include "search/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/live_dataset.h"
#include "prune/delta_grid.h"
#include "search/topk.h"
#include "util/check.h"
#include "util/scheduler.h"
#include "util/stopwatch.h"

namespace trajsearch {

namespace {

/// Candidate-chunk size for the worker stage: small enough that workers
/// load-balance and the most promising candidates (front of the ordered
/// list) finish early and tighten the shared threshold, large enough that
/// the atomic chunk counter is not contended.
size_t ChunkSize(size_t candidates, int workers) {
  const size_t target_chunks = static_cast<size_t>(workers) * 4;
  return std::max<size_t>(
      1, std::min<size_t>(64, (candidates + target_chunks - 1) /
                                  target_chunks));
}

/// Batched plans accumulate kBatchGroups batches' worth of survivors before
/// flushing: one RunBatch sweeps every lane to its *longest* member, so
/// random-length lanes (Porto trajectory lengths vary by several x) would
/// waste most of the lane speedup on ragged tails. The window is sorted
/// longest-first at flush time and emitted in width-sized groups of
/// near-equal length.
constexpr int kBatchGroups = 4;
constexpr int kBatchWindow = kBatchGroups * simd::kLanes;

/// Funnel accounting: a searched candidate's DP work is discarded when its
/// result lands at or above the cutoff the run started with (possibly
/// early-abandoned), or when it found no subtrajectory (SharedTopK drops
/// not-found results).
bool Discarded(const SearchResult& result, double cutoff) {
  return !result.found() || (cutoff != kNoCutoff && result.distance >= cutoff);
}

/// One worker's counters, timers and pending batch window for one query.
struct WorkerState {
  IntervalTimer bound_timer;
  IntervalTimer pair_timer;
  int pruned = 0;
  int searched = 0;
  int skipped = 0;
  int abandoned = 0;
  simd::CellCounts cells;  // drained from the worker's plan once per query
  // Pending window for plans with a cross-candidate kernel (batch_width()
  // > 1): pruning survivors accumulate here and are evaluated by RunBatch
  // groups once the window fills (or at the end of the worker's candidate
  // stream).
  std::array<QueryRun::RunBatchItem, kBatchWindow> batch_items;
  std::array<int, kBatchWindow> batch_ids;
  int batch_pending = 0;
};

}  // namespace

FunnelCounters::FunnelCounters(obs::Registry* registry, Algorithm algorithm) {
  if (registry == nullptr) return;
  const std::string base =
      "engine." + std::string(ToString(algorithm)) + ".funnel.";
  queries = registry->counter(base + "queries");
  candidates = registry->counter(base + "candidates");
  skipped = registry->counter(base + "skipped");
  bound_pruned = registry->counter(base + "bound_pruned");
  dp_runs = registry->counter(base + "dp_runs");
  dp_abandoned = registry->counter(base + "dp_abandoned");
  dp_completed = registry->counter(base + "dp_completed");
  // Kernel-dispatch counters live outside the .funnel. namespace so funnel
  // extraction (obs::ExtractFunnels keys on that marker) never sees them.
  const std::string simd_base =
      "engine." + std::string(ToString(algorithm)) + ".simd.";
  simd_vector_cells = registry->counter(simd_base + "vector_cells");
  simd_scalar_cells = registry->counter(simd_base + "scalar_cells");
  simd_lane_abandons = registry->counter(simd_base + "lane_abandons");
}

void FunnelCounters::Fold(const QueryStats& stats) const {
  if (queries == nullptr) return;
  queries->Add(1);
  candidates->Add(static_cast<uint64_t>(stats.candidates_after_gbp));
  skipped->Add(static_cast<uint64_t>(stats.skipped));
  bound_pruned->Add(static_cast<uint64_t>(stats.pruned_by_bound));
  dp_runs->Add(static_cast<uint64_t>(stats.searched));
  dp_abandoned->Add(static_cast<uint64_t>(stats.abandoned));
  dp_completed->Add(
      static_cast<uint64_t>(stats.searched - stats.abandoned));
  simd_vector_cells->Add(stats.simd_vector_cells);
  simd_scalar_cells->Add(stats.simd_scalar_cells);
  simd_lane_abandons->Add(stats.simd_lane_abandons);
}

std::unique_ptr<Searcher> MakeEngineSearcher(const EngineOptions& options) {
  if ((options.algorithm == Algorithm::kRls ||
       options.algorithm == Algorithm::kRlsSkip) &&
      options.rls_policy != nullptr) {
    return MakeRlsSearcher(options.spec, *options.rls_policy);
  }
  auto made = MakeSearcher(options.algorithm, options.spec);
  TRAJ_CHECK(made.ok());
  return made.MoveValue();
}

CandidatePipeline::CandidatePipeline(const EngineOptions& options)
    : options_(options),
      searcher_(MakeEngineSearcher(options)),
      funnel_(options.metrics, options.algorithm) {
  TRAJ_CHECK(options_.top_k >= 1);
}

template <typename Source, typename Grid>
void CandidatePipeline::Run(TrajectoryView query, const Source& source,
                            const Grid* grid, SharedTopK* topk,
                            int id_offset, QueryStats* stats,
                            int excluded_id) const {
  QueryStats local;
  IntervalTimer gbp_timer;

  // Stage 1: candidate generation, most-promising-first when ordering is
  // on (descending close count — close counts are already computed for the
  // mu filter, so the order is nearly free). The candidate buffer is
  // per-thread scratch so steady-state queries reuse its capacity instead of
  // reallocating (the workers below only read it).
  gbp_timer.Start();
  thread_local std::vector<int> candidate_scratch;
  thread_local std::vector<double> bound_cache_scratch;
  thread_local std::vector<WorkerState> state_scratch;
  bound_cache_scratch.clear();
  // The local-heap ablation (share_threshold off) models per-worker heaps
  // over id-ascending streams, so ordering applies to the shared-threshold
  // pipeline only.
  const bool ordering =
      options_.order_candidates && options_.share_threshold;
  if (grid != nullptr) {
    if (ordering) {
      grid->OrderedCandidates(query, options_.mu, &candidate_scratch);
    } else {
      grid->Candidates(query, options_.mu, &candidate_scratch);
    }
  } else {
    candidate_scratch.resize(static_cast<size_t>(source.size()));
    for (int id = 0; id < source.size(); ++id) {
      candidate_scratch[static_cast<size_t>(id)] = id;
    }
  }
  gbp_timer.Stop();
  local.candidates_after_gbp = static_cast<int>(candidate_scratch.size());
  local.gbp_seconds = gbp_timer.TotalSeconds();

  if (!candidate_scratch.empty()) {
    // Stage 2 setup: one query-bound KPF/OSF plan, shared read-only by
    // every worker (key points and deletion costs are per-query state).
    std::unique_ptr<KpfBoundPlan> bound;
    if ((options_.use_kpf || options_.use_osf) && !query.empty()) {
      bound = plans_.AcquireBound();
      bound->Bind(options_.spec, query,
                  options_.use_osf ? 1.0 : options_.sample_rate);
    }

    // Batched plans defer their Offers to flush time, which is
    // result-identical under a *sound* bound (a pruned candidate provably
    // cannot enter the final top-K no matter when the cutoff tightened) but
    // not under the sampled KPF estimate, whose prune decisions depend on
    // how tight the heap was at check time. Batching stays off there so the
    // sampled ablation keeps its exact sequential semantics (same contract
    // as the `threads`/`order_candidates` caveats).
    const bool sound_bound =
        bound == nullptr || options_.use_osf || options_.sample_rate >= 1.0;

    // Without a grid there are no close counts to order by; order by the
    // KPF/OSF lower bound instead (ascending — the candidates most likely to
    // beat a tight threshold run first). The bounds are computed once here
    // and cached for the workers' bound filter, so ordering shifts the bound
    // work up front rather than adding any.
    IntervalTimer order_timer;
    if (ordering && grid == nullptr && bound != nullptr) {
      order_timer.Start();
      bound->OrderByBound(source, &candidate_scratch, &bound_cache_scratch);
      order_timer.Stop();
    }

    const int workers = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(std::max(1, options_.threads)),
        candidate_scratch.size()));
    state_scratch.assign(static_cast<size_t>(workers), WorkerState{});
    // Bind the scratch on this thread: thread_local names are not captured
    // by lambdas, so the workers must go through these spans.
    const std::span<const int> candidates(candidate_scratch);
    const std::span<const double> cached_bounds(bound_cache_scratch);
    const std::span<WorkerState> states(state_scratch);
    const KpfBoundPlan* bound_plan = bound.get();

    // Evaluates a worker's pending window, longest candidates first. The
    // cutoff is re-captured per group — at most as tight as the
    // per-candidate captures the sequential path would have made, and
    // RunBatch is exact below any cutoff, so the surviving hits (and
    // therefore the final top-K) are identical; only the
    // abandoned/completed split can shift.
    auto flush = [&](SharedTopK* heap, QueryRun* run, int width,
                     WorkerState* state) {
      const int count = state->batch_pending;
      if (count == 0) return;
      state->batch_pending = 0;
      std::array<int, kBatchWindow> order;
      for (int i = 0; i < count; ++i) order[static_cast<size_t>(i)] = i;
      // Longest first, arrival order on ties: the stable order, without
      // std::stable_sort's heap-allocated buffer.
      std::sort(order.begin(), order.begin() + count, [state](int a, int b) {
        const size_t a_len =
            state->batch_items[static_cast<size_t>(a)].data.size();
        const size_t b_len =
            state->batch_items[static_cast<size_t>(b)].data.size();
        return a_len != b_len ? a_len > b_len : a < b;
      });
      std::array<QueryRun::RunBatchItem, simd::kLanes> group_items;
      std::array<SearchResult, simd::kLanes> group_results;
      for (int begin = 0; begin < count; begin += width) {
        const int group = std::min(width, count - begin);
        for (int i = 0; i < group; ++i) {
          group_items[static_cast<size_t>(i)] =
              state->batch_items[static_cast<size_t>(
                  order[static_cast<size_t>(begin + i)])];
        }
        const double cutoff =
            options_.use_early_abandon ? heap->Cutoff() : kNoCutoff;
        state->pair_timer.Start();
        run->RunBatch(group_items.data(), group, cutoff,
                      group_results.data());
        state->pair_timer.Stop();
        state->searched += group;
        for (int i = 0; i < group; ++i) {
          const SearchResult& result = group_results[static_cast<size_t>(i)];
          if (Discarded(result, cutoff)) ++state->abandoned;
          const int id = state->batch_ids[static_cast<size_t>(
              order[static_cast<size_t>(begin + i)])];
          heap->Offer(EngineHit{id + id_offset, result});
        }
      }
    };

    // Stages 2+3 for one candidate (by position in the ordered candidate
    // list), pruning against the worker's top-K. The prune is tie-aware —
    // SharedTopK compares (lower, id) against the published (K-th best,
    // its id) in canonical order — so it makes the same decisions as a
    // distance-only `lower >= worst` rule on a single id-ascending stream
    // while staying order-independent across workers and shards.
    auto process = [&](size_t c, SharedTopK* heap, QueryRun* run, int width,
                       WorkerState* state) {
      const int id = candidates[c];
      if (id == excluded_id) {
        ++state->skipped;
        return;
      }
      const TrajectoryView data = source[id];
      if (data.empty()) {
        ++state->skipped;
        return;
      }
      if (bound_plan != nullptr && heap->Cutoff() != kNoCutoff) {
        double lower;
        if (!cached_bounds.empty()) {
          lower = cached_bounds[c];  // paid once in the ordering pre-pass
        } else {
          state->bound_timer.Start();
          lower = bound_plan->LowerBound(data);
          state->bound_timer.Stop();
        }
        if (heap->ShouldPrune(lower, id + id_offset)) {
          ++state->pruned;
          return;
        }
      }
      if (width > 1) {
        // Batched plans: park the survivor; a full window flushes through
        // length-sorted RunBatch groups.
        state->batch_items[static_cast<size_t>(state->batch_pending)] =
            QueryRun::RunBatchItem{data, source.cols(id)};
        state->batch_ids[static_cast<size_t>(state->batch_pending)] = id;
        if (++state->batch_pending == width * kBatchGroups) {
          flush(heap, run, width, state);
        }
        return;
      }
      // Early abandoning: a result at or above the cutoff can never enter
      // the top-K (SharedTopK's cutoff is strictly above the K-th best, so
      // distance ties — which may still win on the canonical id tie-break —
      // stay below it and are computed exactly), so the plan may stop as
      // soon as it can prove the cutoff unbeatable.
      const double cutoff =
          options_.use_early_abandon ? heap->Cutoff() : kNoCutoff;
      state->pair_timer.Start();
      const SearchResult result = run->RunCols(data, source.cols(id), cutoff);
      state->pair_timer.Stop();
      if (Discarded(result, cutoff)) ++state->abandoned;
      heap->Offer(EngineHit{id + id_offset, result});
      ++state->searched;
    };

    // One worker: binds a pooled plan, pulls candidate chunks from the
    // shared counter (dynamic load balancing; the ordered front of the list
    // runs first) and drains its window once its stream is exhausted.
    const size_t chunk = ChunkSize(candidates.size(), workers);
    std::atomic<size_t> next{0};
    auto work = [&](int w) {
      WorkerState& state = states[static_cast<size_t>(w)];
      std::unique_ptr<QueryRun> run = plans_.AcquireRun(*searcher_);
      run->Bind(query);
      const int width = sound_bound ? run->batch_width() : 1;
      // The local-heap ablation prunes against this worker's own hits only.
      std::optional<SharedTopK> own;
      if (!options_.share_threshold) own.emplace(options_.top_k);
      SharedTopK* heap = own.has_value() ? &*own : topk;
      for (;;) {
        // relaxed: the chunk counter only hands out disjoint ranges — each
        // worker reads the candidate array, which was published before the
        // tasks were submitted; no payload rides on the counter itself.
        const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= candidates.size()) break;
        const size_t end = std::min(candidates.size(), begin + chunk);
        for (size_t c = begin; c < end; ++c) {
          process(c, heap, run.get(), width, &state);
        }
      }
      flush(heap, run.get(), width, &state);
      if (own.has_value()) {
        for (const EngineHit& hit : own->Sorted()) topk->Offer(hit);
      }
      state.cells = run->TakeSimdStats();
      plans_.ReleaseRun(std::move(run));
    };

    Stopwatch stage;
    if (workers == 1) {
      work(0);  // the serial pipeline touches no pool and no TaskGroup
    } else {
      ThreadPool& pool = options_.scheduler != nullptr ? *options_.scheduler
                                                       : DefaultScheduler();
      TaskGroup group;
      for (int w = 1; w < workers; ++w) {
        pool.Submit(&group, [&work, w]() { work(w); });
      }
      work(0);  // the caller is worker 0, so progress never depends on the
                // pool having an idle thread
      group.Wait();
    }
    local.search_seconds = stage.Seconds();
    local.bound_seconds = order_timer.TotalSeconds();
    for (const WorkerState& state : states) {
      local.pruned_by_bound += state.pruned;
      local.searched += state.searched;
      local.skipped += state.skipped;
      local.abandoned += state.abandoned;
      local.bound_seconds += state.bound_timer.TotalSeconds();
      local.pair_search_seconds += state.pair_timer.TotalSeconds();
      local.simd_vector_cells += state.cells.vector_cells;
      local.simd_scalar_cells += state.cells.scalar_cells;
      local.simd_lane_abandons += state.cells.lane_abandons;
    }
    if (bound != nullptr) plans_.ReleaseBound(std::move(bound));
  }
  local.prune_seconds = local.gbp_seconds + local.bound_seconds;

  // One registry fold per query: a handful of relaxed counter adds, so the
  // per-candidate hot path above carries no instrumentation at all.
  if (options_.metrics != nullptr && options_.metrics->enabled()) {
    funnel_.Fold(local);
  }
  if (stats != nullptr) *stats = local;
}

template void CandidatePipeline::Run(TrajectoryView, const DatasetView&,
                                     const GridIndex*, SharedTopK*, int,
                                     QueryStats*, int) const;
template void CandidatePipeline::Run(TrajectoryView, const DeltaView&,
                                     const DeltaGridIndex*, SharedTopK*, int,
                                     QueryStats*, int) const;

SearchEngine::SearchEngine(DatasetView data, EngineOptions options)
    : data_(data), pipeline_(options) {
  if (options.use_gbp && !data_.empty()) {
    // Derive the default cell size locally; options() stays exactly what
    // the caller passed (the derived value is observable via grid()->stats()).
    double cell = options.cell_size;
    if (cell <= 0) cell = DefaultCellSize(data_.Bounds());
    const GridIndex* prebuilt = options.prebuilt_grid;
    if (prebuilt != nullptr && data_.begin_id() == 0 &&
        data_.size() == prebuilt->dataset_size() &&
        cell == prebuilt->cell_size()) {
      // The prebuilt index covers exactly this view at exactly this cell
      // side, so serving it is hit-for-hit identical to building one.
      grid_view_ = prebuilt;
    } else {
      grid_ = std::make_unique<GridIndex>(data_, cell);
      grid_view_ = grid_.get();
    }
  }
}

std::vector<EngineHit> SearchEngine::Query(TrajectoryView query,
                                           QueryStats* stats,
                                           int excluded_id) const {
  SharedTopK topk(options().top_k);
  QueryInto(query, &topk, /*id_offset=*/0, stats, excluded_id);
  return topk.Sorted();
}

void SearchEngine::QueryInto(TrajectoryView query, SharedTopK* topk,
                             int id_offset, QueryStats* stats,
                             int excluded_id) const {
  pipeline_.Run(query, data_, grid_view_, topk, id_offset, stats,
                excluded_id);
}

}  // namespace trajsearch
