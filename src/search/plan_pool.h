#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "prune/key_point_filter.h"
#include "search/searcher.h"
#include "util/sync.h"

namespace trajsearch {

/// \brief Grow-only check-out/check-in pools for per-worker query state.
///
/// Each CandidatePipeline holds one pool of the reusable QueryRun plans and
/// KPF/OSF bound plans its workers bind per query: a worker checks a plan
/// out, rebinds it, and returns it, so steady-state traffic reuses warm
/// scratch instead of reallocating (the property tests/plan_alloc_test.cc
/// audits). The pipeline is the one search loop behind both candidate
/// sources — SearchEngine (base shards) and DeltaEngine (live-corpus delta)
/// — so the pooling discipline has exactly one user. Acquire/Release are
/// safe to call concurrently; the pools only ever grow.
class PlanPool {
 public:
  /// Checks out a pooled plan, or has `searcher` create the pool's next one.
  std::unique_ptr<QueryRun> AcquireRun(const Searcher& searcher)
      TRAJ_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (!runs_.empty()) {
        std::unique_ptr<QueryRun> run = std::move(runs_.back());
        runs_.pop_back();
        return run;
      }
    }
    return searcher.NewRun();
  }

  void ReleaseRun(std::unique_ptr<QueryRun> run) TRAJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    runs_.push_back(std::move(run));
  }

  std::unique_ptr<KpfBoundPlan> AcquireBound() TRAJ_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (!bounds_.empty()) {
        std::unique_ptr<KpfBoundPlan> bound = std::move(bounds_.back());
        bounds_.pop_back();
        return bound;
      }
    }
    return std::make_unique<KpfBoundPlan>();
  }

  void ReleaseBound(std::unique_ptr<KpfBoundPlan> bound) TRAJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    bounds_.push_back(std::move(bound));
  }

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<QueryRun>> runs_ TRAJ_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<KpfBoundPlan>> bounds_ TRAJ_GUARDED_BY(mu_);
};

}  // namespace trajsearch
