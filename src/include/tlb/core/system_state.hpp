#pragma once
// Full system state: a mem::TaskArena holding every resource's stack plus
// aggregate queries. The exact user engine (on K_n or a graph) and the
// resource engine each own a SystemState; tests use it directly to check
// the paper's invariants (weight conservation, Observation 4, Lemma 1, ...).
//
// Storage: all task ids and mirrored weights live in one flat SoA arena
// (tlb/mem/task_arena.hpp) instead of n per-resource vectors; place() is a
// destination-bucketed batch build (mem::BatchPlacer), scatter() its
// in-round counterpart (mem::BatchScatter), and stack(r) hands out a
// read-only ResourceStack view. Stacks change only through the mutators
// below.
//
// Overloaded-set contract: the state is built with its thresholds (a
// core::Thresholds, uniform or per resource), fixed for its lifetime as in
// Algorithms 5.1 and 6.1, and keeps the set { r : load(r) > T_r } current
// incrementally — every mutating entry point (place, scatter,
// evict_scatter, the evict/remove forwarders below) marks the touched
// resources dirty, and the O(active) queries
// overloaded()/overloaded_count()/balanced() reconcile only the dirty
// entries. Per-round cost is therefore O(#overloaded + #movers + n/256)
// instead of O(n), which is what makes post-convergence tail rounds at
// n = 10^6 cheap. (Moving thresholds are the churn engine's: GroupedState.)

#include <vector>

#include "tlb/core/load_stats.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/resource_stack.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/mem/task_arena.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"

namespace tlb::core {

using graph::Node;
using tasks::TaskId;

/// Mutable allocation of a TaskSet onto n resources.
class SystemState {
 public:
  /// Empty state over n resources for the given tasks (not owned; must
  /// outlive the state), tracked against `thresholds` for its lifetime.
  /// Throws std::invalid_argument naming `who` (the owning engine) unless
  /// the thresholds pass Thresholds::checked. No tasks placed yet.
  SystemState(const tasks::TaskSet& tasks, Node n, Thresholds thresholds,
              const char* who = "SystemState");

  /// The thresholds the state is tracked against; engines read them back
  /// from here.
  const Thresholds& thresholds() const noexcept { return thresholds_; }

  /// Place all tasks per `placement` (task id order) by plain stacking, as
  /// the user-controlled protocols do. One counting-sorted batch build;
  /// semantically identical to sequential pushes.
  void place(const tasks::Placement& placement);
  /// Place with acceptance bookkeeping against thresholds() (Algorithm
  /// 5.1's stacks), as sequential push_accepting calls would.
  void place_accepting(const tasks::Placement& placement);

  /// Number of resources.
  Node num_resources() const noexcept { return arena_.num_resources(); }
  /// The task set this state allocates.
  const tasks::TaskSet& task_set() const noexcept { return *tasks_; }
  /// The SoA storage behind the stacks (tests, perf counters).
  const mem::TaskArena& arena() const noexcept { return arena_; }

  /// Read-only view of one resource's stack (invalidated by any mutation).
  ResourceStack stack(Node r) const { return {arena_, r}; }

  /// Load of resource r.
  double load(Node r) const noexcept { return arena_.load(r); }

  // --- Mutating forwarders (keep the overloaded set current) ---

  /// Phase 2 of every stack engine: append ids[i] to resource dst[i] for
  /// all i (plain stacking, user-controlled protocols). Bit-identical to
  /// pushing them one by one in index order — every destination receives
  /// its tasks in index order — and marks each destination dirty once, on
  /// the caller, in mem::BatchScatter's block order. O(#movers + n/256);
  /// the bucketing and filling shard over `pool` when one is given, with
  /// the same result.
  void scatter(const std::vector<Node>& dst, const std::vector<TaskId>& ids,
               util::ThreadPool* pool = nullptr);
  /// Algorithm 5.1's evictions and arrivals in one bulk pass: evict the
  /// unaccepted suffix of every overloaded() resource and append evictee j
  /// (list order, bottom to top within a stack) to dst[j] with acceptance
  /// bookkeeping against thresholds()[dst[j]] — mem::BatchScatter's
  /// evict_scatter. Bit-identical to evicting the suffixes in list order
  /// and then pushing evictee j onto dst[j] for j = 0, 1, ..., dirty marks
  /// included: each evicted resource in list order, then each destination
  /// once, in block order. dst.size() must be the number of unaccepted
  /// tasks on the overloaded resources.
  void evict_scatter(const std::vector<Node>& dst);
  /// Height-based eviction of everything crossing/above thresholds()[r]
  /// (the exact engine's resource mode, under a blend β > 0).
  void evict_above(Node r, std::vector<TaskId>& out);
  /// Remove the flagged stack positions of r, appending to `out`.
  void remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                     std::vector<TaskId>& out);
  /// The exact engine's merge: remove every marked task of a flat layout
  /// (mem::TaskArena's bulk remove_marked, sharded over `pool` when one is
  /// given), movers in layout order into ids/origin. Then marks each
  /// resource that lost a task dirty, on the caller, in layout order.
  void remove_marked(const mem::FlatMarks& marks, std::vector<TaskId>& ids,
                     std::vector<Node>& origin, util::ThreadPool* pool);

  // --- O(active) queries against thresholds() ---

  /// The overloaded resources { r : load(r) > thresholds()[r] }, ascending.
  /// Cost: O(#dirty + #overloaded) to reconcile, O(1) when nothing changed.
  const std::vector<Node>& overloaded() const;
  /// overloaded().size() as a Node.
  [[nodiscard]] Node overloaded_count() const;
  /// True iff no resource is overloaded. O(#dirty + #overloaded).
  [[nodiscard]] bool balanced() const;

  /// Read access to the incremental tracker itself, for observability:
  /// flush_checks()/dirty_marks() deltas per round are seed-deterministic
  /// cost counters the obs hooks export.
  const OverloadedSet& overloaded_tracker() const noexcept {
    return overloaded_;
  }

  /// Load vector snapshot (n entries).
  std::vector<double> loads() const;

  /// Maximum load over all resources. O(n) scan.
  [[nodiscard]] double max_load() const;

  /// Deterministic load-distribution snapshot (max/mean/p50/p90/p99,
  /// overload mass, imbalance) against thresholds().max(): exact order
  /// statistics from an O(n) scan. `calc` is the caller's reusable scratch
  /// (one per observer).
  [[nodiscard]] LoadStats load_stats(LoadStatsCalc& calc) const;

  /// Sum of loads; equals the TaskSet total when every task is placed.
  double total_load() const;

  /// Verify structural sanity: every task appears exactly once across all
  /// stacks, mirrored weights match the TaskSet, cached loads match
  /// recomputed sums, the arena's span accounting holds, and the
  /// incremental overloaded set equals a brute-force rescan. Throws std::logic_error with a description on
  /// violation. O(m + n); used by tests and paranoid-check runs.
  void check_invariants() const;

 private:
  const tasks::TaskSet* tasks_;
  mem::TaskArena arena_;                  // SoA storage for all stacks
  mem::BatchPlacer placer_;               // destination-bucketed place()
  mem::BatchScatter scatter_;             // destination-bucketed scatter()
  Thresholds thresholds_;                 // tracked against, fixed
  mutable OverloadedSet overloaded_;      // lazily reconciled in queries
};

}  // namespace tlb::core
