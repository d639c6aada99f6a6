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
// of Theorems 3 and 7 use. The engine realises one synchronous round as:
// (1) evict all unaccepted suffixes of overloaded resources, (2) move every
// evicted task one step of P, (3) append arrivals (acceptance test on push).

#include <vector>

#include "tlb/core/metrics.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"

namespace tlb::core {

/// Configuration of a resource-controlled run.
struct ResourceProtocolConfig {
  double threshold = 0.0;  ///< T_r (same for every resource)
  /// Non-uniform thresholds (the paper's future-work extension): when
  /// non-empty, thresholds[r] overrides `threshold` for resource r. Size
  /// must equal the node count.
  std::vector<double> thresholds;
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

  /// Run until balanced or options.max_rounds (engine::drive under the
  /// hood), collecting metrics.
  RunResult run(util::Rng& rng);

  /// Convenience: reset + run.
  RunResult run(const tasks::Placement& placement, util::Rng& rng);

  // engine::Balancer view (driver metrics + observers).
  /// Resource potential Φ of eq. (1): total unaccepted weight.
  [[nodiscard]] double potential() const;
  /// Number of resources currently above threshold.
  [[nodiscard]] std::uint32_t overloaded_count() const;
  /// Heaviest resource right now.
  [[nodiscard]] double max_load() const;
  /// The threshold RunResult reports (largest configured).
  [[nodiscard]] double reported_threshold() const noexcept {
    return max_threshold_;
  }
  /// Paranoid-mode invariant check (throws std::logic_error on violation).
  void audit() const;

  /// Read-only state access (tests, potential traces).
  const SystemState& state() const noexcept { return state_; }
  /// The threshold of resource r.
  double threshold(Node r) const noexcept { return thresholds_[r]; }
  /// The largest configured threshold (== the uniform one if uniform).
  double threshold() const noexcept { return max_threshold_; }

 private:
  const graph::Graph* graph_;
  const tasks::TaskSet* tasks_;
  ResourceProtocolConfig config_;
  std::vector<double> thresholds_;  // resolved per-resource thresholds
  double max_threshold_ = 0.0;
  randomwalk::TransitionModel walk_;
  SystemState state_;  // owns the incremental overloaded-set tracking
  std::vector<TaskId> movers_;   // scratch: evicted tasks this round
  std::vector<Node> mover_origin_;  // scratch: source, then destination
};

}  // namespace tlb::core
