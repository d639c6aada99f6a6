#pragma once
// User-controlled migration on *arbitrary* graphs — the setting Hoefer &
// Sauerwald analyse (they show an O(n⁵·H(G)·log m) bound for uniform tasks;
// the paper under reproduction restricts its user-controlled analysis to
// complete graphs and leaves general graphs open).
//
// Protocol: identical decision rule to Algorithm 6.1 — every task on an
// overloaded resource leaves with probability α·⌈φ_r/w_max⌉·(1/b_r) — but a
// leaving task moves one step of the max-degree walk P from its current
// resource instead of jumping to a uniform resource. On the complete graph
// this degenerates to Algorithm 6.1 (with exclude_self semantics).

#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"

namespace tlb::core {

/// Configuration of a graph user-protocol run.
struct GraphUserConfig {
  Thresholds threshold;  ///< T_r: uniform or one per node
  double alpha = 1.0;  ///< migration dampening α
  randomwalk::WalkKind walk = randomwalk::WalkKind::kMaxDegree;
};

/// User-controlled engine over a graph topology.
class GraphUserEngine {
 public:
  /// `g` and `ts` must outlive the engine.
  GraphUserEngine(const graph::Graph& g, const tasks::TaskSet& ts,
                  GraphUserConfig config);

  /// Reset to the given placement (plain stacking).
  void reset(const tasks::Placement& placement);
  /// One synchronous round; returns the number of migrations.
  std::size_t step(util::Rng& rng);
  /// True iff every load is <= its resource's threshold.
  [[nodiscard]] bool balanced() const;

  // engine::Balancer view (driver metrics + observers).
  /// User potential Φ(t) = Σ_r φ_r(t) against the per-resource thresholds.
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

  /// Read-only state access; it owns the thresholds.
  const SystemState& state() const noexcept { return state_; }

 private:
  GraphUserConfig config_;  // its threshold moves into state_
  randomwalk::TransitionModel walk_;
  SystemState state_;
  std::vector<TaskId> movers_;            // scratch
  std::vector<Node> mover_origin_;        // scratch: origin, then destination
  std::vector<std::uint8_t> leave_mask_;  // scratch
};

}  // namespace tlb::core
