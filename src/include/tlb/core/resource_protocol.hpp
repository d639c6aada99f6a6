#pragma once
// Algorithm 5.1 — resource-controlled migration on arbitrary graphs.
//
//   for all resources r in parallel:
//     if x_r(t) > T_r:
//       remove every task in I^a_r(t) ∪ I^c_r(t) and reallocate each to a
//       neighbour sampled from the transition matrix P; assign new heights.
//
// With the stack semantics, the eviction set is exactly the unaccepted
// suffix, so each active task performs an independent random walk under P
// until it lands on a resource that can accept it — the coupling the proofs
// of Theorems 3 and 7 use. The engine realises one synchronous round as
// two passes over the overloaded list:
//  (1) walk: for each overloaded r, in list order, take r's row of P once
//      and draw one destination per unaccepted task, bottom to top. The
//      pass only reads the stacks' counts; its draw order is the eviction
//      order, one row step per evictee, so the stream is that of evicting
//      first and then stepping each evictee.
//  (2) evict and scatter (SystemState::evict_scatter): every evictee's
//      record goes straight from its span into its destination block, the
//      suffixes are evicted, and the arrivals land with the acceptance test
//      on push, exactly as sequential push_accepting calls in eviction
//      order would.
// Uniform and per-resource thresholds (core::Thresholds) run the same two
// passes.

#include <vector>

#include "tlb/core/metrics.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/step_phases.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"

namespace tlb::core {

/// Configuration of a resource-controlled run.
struct ResourceProtocolConfig {
  /// T_r: one value for every resource, or one per node (the paper's
  /// future-work extension, see hetero.hpp).
  Thresholds threshold;
  randomwalk::WalkKind walk = randomwalk::WalkKind::kMaxDegree;
  EngineOptions options;
};

/// Executable engine. Bind once to (graph, tasks); run one or many trials.
class ResourceControlledEngine {
 public:
  /// `g` and `ts` must outlive the engine.
  ResourceControlledEngine(const graph::Graph& g, const tasks::TaskSet& ts,
                           ResourceProtocolConfig config);

  /// Reset to the given placement (task-id order, acceptance bookkeeping on).
  void reset(const tasks::Placement& placement);

  /// Execute one synchronous round. Returns the number of migrations.
  std::size_t step(util::Rng& rng);

  /// True iff no resource is overloaded (equivalently: no active task).
  /// O(#touched since the last query) via the state's incremental set.
  [[nodiscard]] bool balanced() const { return state_.balanced(); }

  // engine::Balancer view (driver metrics + observers).
  /// Resource potential Φ of eq. (1): total unaccepted weight, summed over
  /// the overloaded list in O(#overloaded). Every other stack's pending
  /// load is exactly 0.0 (load and accepted load took the same additions,
  /// or an eviction snapped one onto the other), so the sum is bitwise
  /// core::resource_potential's O(n) one.
  [[nodiscard]] double potential() const;
  /// Number of resources currently above threshold.
  [[nodiscard]] std::uint32_t overloaded_count() const;
  /// Heaviest resource right now.
  [[nodiscard]] double max_load() const;
  /// The threshold RunResult reports (largest configured).
  [[nodiscard]] double reported_threshold() const noexcept {
    return state_.thresholds().max();
  }
  /// Paranoid-mode invariant check (throws std::logic_error on violation).
  void audit() const;

  /// Read-only state access (tests, potential traces); it owns the
  /// thresholds.
  const SystemState& state() const noexcept { return state_; }

 private:
  ResourceProtocolConfig config_;  // its threshold moves into state_
  randomwalk::TransitionModel walk_;
  SystemState state_;  // owns the incremental overloaded-set tracking
  std::vector<Node> dst_;  // per round: one destination per evictee
  // Observability: "resource.*"; no probe, so dsan rows are state-only.
  StepPhases phases_;
  StepPhases::Phase walk_phase_, scatter_phase_;
  StepPhases::Counter m_evictions_;
  TrackerCounters tracker_counters_;
};

}  // namespace tlb::core
