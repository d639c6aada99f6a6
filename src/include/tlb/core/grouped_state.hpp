#pragma once
// The grouped form of Algorithm 6.1: state and round, shared by
// GroupedUserEngine (a fixed task set) and DynamicUserEngine (the same
// round under arrivals, completions and crashes).
//
// Tasks are counted per (resource, weight class); loads and task counts
// are kept per resource. A round draws, for every overloaded resource r
// and class c, the number of leavers from Binomial(count(r, c), p_r) with
// p_r = min(1, α·⌈φ_r / w_max⌉ / b_r) — distributionally identical to
// individual coins — and φ_r from the canonical ascending-weight stacking.
// Every leaver then moves to a uniform resource.
//
// The thresholds come with the constructor. The grouped engine keeps them;
// the churn engine moves its uniform T every round through
// shift_threshold(), the library's only threshold move (SystemState's are
// fixed for its lifetime).
//
// Phase 1 (sampling) is sharded: each round draws one base seed from the
// caller's stream, and every kShardGrain-sized slice of the overloaded
// list samples from its private Rng(derive_seed(round_seed, shard)) into a
// shard-local buffer while only reading the frozen round-start state.
// Shard boundaries depend only on that state, never on the thread count,
// and phase 2 applies the buffers in shard order on the calling thread, so
// results are bitwise identical for every thread count.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tlb/core/completions.hpp"
#include "tlb/core/load_stats.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/step_phases.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::core {

/// Per-(resource, class) counts plus the grouped Algorithm 6.1 round.
class GroupedState {
 public:
  /// Overloaded-list shard grain of the phase-1 sampler (per-class
  /// binomials are cheap, so shards batch whole resources). Part of the
  /// deterministic stream definition; changing it changes results.
  static constexpr std::size_t kShardGrain = 512;

  /// `class_weights` ascending; the largest is the w_max of ⌈φ/w_max⌉.
  /// `thresholds` are what the round runs against (owners validate them).
  /// `exclude_self` draws destinations among the other n-1 resources.
  /// `threads` phase-1 workers: 1 samples inline, 0 = hardware concurrency.
  GroupedState(graph::Node n, std::vector<double> class_weights,
               Thresholds thresholds, double alpha, bool exclude_self,
               std::size_t threads);

  // --- thresholds ---
  /// Move a uniform threshold to `next`, re-checking only the resources
  /// whose load lies between the old and the new value: the churn engine's
  /// per-round recomputation, and the library's only threshold move.
  /// Requires uniform thresholds.
  void shift_threshold(double next);
  const Thresholds& thresholds() const noexcept { return thresholds_; }

  // --- observability ---
  /// Report through the owner's `phases`, phase 1 as `sample` and phase 2
  /// as `apply`; register the tracker's counters under `engine`, then the
  /// pool's. Owners call it after registering their own phases and counters.
  void attach(const StepPhases& phases, StepPhases::Phase sample,
              StepPhases::Phase apply, const std::string& engine);

  // --- mutation ---
  /// Rebuild from scratch: task i sits on placement[i] with class
  /// task_class[i] (an empty placement empties every resource). Every
  /// overloaded status is pending re-check afterwards.
  void place(std::span<const graph::Node> placement,
             std::span<const std::uint32_t> task_class);
  /// Add one task of class `cls` to r.
  void add_task(graph::Node r, std::uint32_t cls) {
    ++counts_[slot(r, cls)];
    loads_[r] += class_weights_[cls];
    ++task_counts_[r];
    over_.mark_dirty(r);
  }
  /// Empty r: no tasks and a load of exactly 0.0 (a subtraction would
  /// leave rounding residue).
  void clear_resource(graph::Node r);
  /// Complete every task independently with probability `mu`
  /// (core::complete_tasks over the (resource, class) slots in order).
  /// Calls on_removed(weight) with the weight each slot lost, in slot
  /// order, and returns the number of completed tasks.
  template <class OnRemoved>
  std::uint64_t complete(util::Rng& rng, double mu, OnRemoved&& on_removed) {
    const std::size_t C = class_weights_.size();
    return complete_tasks(
        rng, mu, counts_,
        [this, C, &on_removed](std::size_t slot_index, std::uint32_t done) {
          const auto r = static_cast<graph::Node>(slot_index / C);
          const double weight =
              static_cast<double>(done) * class_weights_[slot_index % C];
          loads_[r] -= weight;
          task_counts_[r] -= done;
          over_.mark_dirty(r);
          on_removed(weight);
        });
  }

  /// One round against the current thresholds: draws the round seed from
  /// `rng`, samples the departures, then moves every leaver to a uniform
  /// destination drawn from `rng`. Returns the number of migrations. With a
  /// probe attached it arms the shard budgets and records the two phases'
  /// digests; the owner brackets the step with begin_step()/end_step().
  std::size_t step(util::Rng& rng);
  /// (resource, class) departure groups the last step() applied.
  std::size_t last_departure_groups() const noexcept {
    return departure_groups_;
  }

  // --- queries ---
  graph::Node num_resources() const noexcept { return n_; }
  std::size_t num_classes() const noexcept { return class_weights_.size(); }
  /// The class weights, ascending.
  const std::vector<double>& class_weights() const noexcept {
    return class_weights_;
  }
  std::uint32_t count(graph::Node r, std::size_t c) const noexcept {
    return counts_[slot(r, c)];
  }
  double load(graph::Node r) const noexcept { return loads_[r]; }
  const std::vector<double>& loads() const noexcept { return loads_; }
  /// The overloaded resources, ascending (reconciled on access).
  const std::vector<graph::Node>& overloaded() const;
  /// Heaviest resource: served from the tracker's load index in
  /// O(#buckets) while it is live (a sparse threshold shift armed it), O(n)
  /// otherwise.
  double max_load() const;
  /// The user potential Σ φ_r under the canonical stacking. O(#overloaded):
  /// φ_r = 0 on every non-overloaded resource.
  double potential() const;
  /// Deterministic load-distribution snapshot against thresholds().max(),
  /// index-served when the tracker's index is live.
  void collect_load_stats(LoadStatsCalc& calc, LoadStats& out) const;
  /// Throw std::logic_error naming `who` if the incremental overloaded set
  /// disagrees with a brute-force rescan.
  void audit(const char* who) const;
  /// Fold every resource's load, task count and class counts into `d`.
  /// Const reads only; never reconciles the tracker.
  void digest_resources(dsan::Digest& d) const;
  /// The incremental overloaded tracker (tests read its cost counters).
  const OverloadedSet& tracker() const noexcept { return over_; }

 private:
  /// One (resource, class) departure drawn in phase 1, applied in phase 2.
  struct Departure {
    graph::Node src;
    std::uint32_t cls;
    std::uint32_t count;
  };

  std::size_t slot(graph::Node r, std::size_t c) const noexcept {
    return static_cast<std::size_t>(r) * class_weights_.size() + c;
  }
  double phi_of(graph::Node r) const;
  /// Weight of the tasks on r that fit completely below the threshold when
  /// classes are stacked in ascending weight order.
  double fitted_prefix_weight(graph::Node r) const;

  graph::Node n_;
  std::vector<double> class_weights_;       // ascending
  double w_max_;
  double alpha_;
  bool exclude_self_;
  Thresholds thresholds_;
  std::vector<std::uint32_t> counts_;       // n x C, row-major
  std::vector<double> loads_;               // per resource
  std::vector<std::uint32_t> task_counts_;  // per resource (b_r)
  mutable OverloadedSet over_;              // incremental overloaded set
  std::unique_ptr<util::ThreadPool> pool_;  // phase-1 workers (threads != 1)
  std::vector<std::vector<Departure>> shard_bufs_;  // per-shard phase 1
  std::size_t departure_groups_ = 0;
  StepPhases phases_;
  StepPhases::Phase sample_phase_, apply_phase_;
  TrackerCounters tracker_counters_;
};

}  // namespace tlb::core
