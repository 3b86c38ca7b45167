#pragma once

#include "core/live_dataset.h"
#include "prune/delta_grid.h"
#include "search/engine.h"
#include "util/check.h"

namespace trajsearch {

/// \brief Search stage over a live corpus's delta.
///
/// The base corpus is served by the sharded SearchEngines; the trajectories
/// appended since the last compaction run through this engine instead. It
/// is the same CandidatePipeline over a second candidate source — the
/// DeltaView and its DeltaGridIndex instead of a DatasetView and its
/// GridIndex — so the delta follows every rule the base does (`threads`,
/// ordering, bound ordering without a grid, batching, threshold sharing).
/// Hits are offered into the caller's SharedTopK with corpus ids, so the
/// base shards and the delta prune against one corpus-wide K-th-best
/// threshold and the merged result is hit-for-hit what one engine over the
/// flattened corpus would return (under a sound bound). QueryInto is safe
/// to call concurrently.
class DeltaEngine {
 public:
  /// Uses the same options as the shard engines.
  explicit DeltaEngine(EngineOptions options) : pipeline_(options) {}

  /// Evaluates the delta trajectories of one pinned generation. `grid` is
  /// the generation's DeltaGridIndex (null runs every delta trajectory, the
  /// GBP-off pipeline). Hits are offered as corpus ids: delta id +
  /// `id_offset` (the generation's base size). `excluded_id` is delta-local
  /// (-1 for none).
  void QueryInto(TrajectoryView query, const DeltaView& delta,
                 const DeltaGridIndex* grid, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const {
    TRAJ_DCHECK(grid == nullptr || grid->size() == delta.size());
    pipeline_.Run(query, delta, grid, topk, id_offset, stats, excluded_id);
  }

  const EngineOptions& options() const { return pipeline_.options(); }

 private:
  /// Folds into the same `engine.<Algorithm>.funnel.*` counters as the base
  /// shard engines (delta hits flow through the same pipeline stages).
  CandidatePipeline pipeline_;
};

}  // namespace trajsearch
