#pragma once
// Mixed resource/user protocol — the paper's conclusion explicitly proposes
// studying "mixed protocols, which are both resource-based and user-based".
//
// Interpolation: a blend parameter β ∈ [0, 1]. Each round, every overloaded
// resource independently acts *resource-controlled* with probability β
// (evicting its entire above-threshold suffix, each evictee taking one
// P-step), and otherwise leaves the decision to its *users* (each task
// leaves with the Algorithm 6.1 probability α·⌈φ_r/w_max⌉/b_r and takes one
// P-step). β = 1 recovers Algorithm 5.1. β = 0 is the graph variant of
// Algorithm 6.1, and the engine behind the "graphuser" scenario protocol:
// user-controlled migration on an arbitrary graph, the setting Hoefer &
// Sauerwald analyse (an O(n⁵·H(G)·log m) bound for uniform tasks; the
// paper analyses user control on the complete graph only). On the complete
// graph with the max-degree walk it has Algorithm 6.1's law with
// exclude_self destinations.
//
// The interesting trade-off the blend exposes: resource-controlled rounds
// drain overload fast but migrate whole suffixes (bursty network traffic);
// user-controlled rounds move ≈⌈φ/w_max⌉ tasks in expectation (smooth
// traffic) but take more rounds. The mixed_protocol bench quantifies both
// axes as β sweeps.

#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"

namespace tlb::core {

/// Configuration of a mixed-protocol run.
struct MixedProtocolConfig {
  Thresholds threshold;  ///< T_r: uniform or one per node
  /// Probability that an overloaded resource acts resource-controlled this
  /// round (β above), in [0, 1]. 1 = pure resource. 0 = pure user: the
  /// graph-user protocol, which draws no blend coin at all, so its stream
  /// is departure coins and walk steps only.
  double resource_probability = 0.5;
  double alpha = 1.0;  ///< user-side migration dampening α
  randomwalk::WalkKind walk = randomwalk::WalkKind::kMaxDegree;
};

/// Executable mixed-protocol engine over a graph topology.
class MixedProtocolEngine {
 public:
  /// `g` and `ts` must outlive the engine.
  MixedProtocolEngine(const graph::Graph& g, const tasks::TaskSet& ts,
                      MixedProtocolConfig config);

  /// Reset to the given placement (plain stacking; the mixed protocol uses
  /// height-based eviction because user departures invalidate the accepted
  /// prefix bookkeeping).
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
  /// Rounds in which at least one resource acted resource-controlled.
  long resource_rounds() const noexcept { return resource_rounds_; }

 private:
  MixedProtocolConfig config_;  // its threshold moves into state_
  randomwalk::TransitionModel walk_;
  SystemState state_;
  long resource_rounds_ = 0;
  std::vector<TaskId> movers_;            // scratch
  std::vector<Node> mover_origin_;        // scratch: origin, then destination
  std::vector<std::uint8_t> leave_mask_;  // scratch
};

}  // namespace tlb::core
