#pragma once
// Algorithm 6.1 — user-controlled migration.
//
//   for all users (tasks) in parallel:
//     let r be the task's resource
//     if x_r > T_r:
//       with probability  α · ⌈φ_r / w_max⌉ · (1 / b_r)
//       migrate to a resource chosen uniformly at random.
//
// φ_r is the weight of the task cutting the threshold plus everything above
// it (Section 6), b_r the number of tasks on r. Tasks need only know α, φ_r,
// w_max and b_r. The probability is clamped to [0, 1] (with the paper's
// simulation choice α = 1 it can exceed 1 on extreme piles).
//
// Two interchangeable engines:
//  * UserControlledEngine  ("exact")   — every task flips its own coin;
//    stacks keep true arrival order. Reference semantics, O(Σ b_r) per round.
//  * GroupedUserEngine     ("grouped") — tasks are grouped per (resource,
//    weight class); the number of leavers per group is drawn from the exact
//    Binomial(count, p), which is distributionally identical to individual
//    coins. Stacks use a canonical ascending-weight order for φ. This makes
//    Figure 1/2-scale sweeps hundreds of times faster for two-point weight
//    profiles. Its state and round are GroupedState (grouped_state.hpp),
//    which the churn engine (dynamic.hpp) runs too.
//
// The exact engine's second constructor runs the same round on a graph:
// each mover takes one random-walk step (randomwalk::TransitionModel) from
// its origin instead of a uniform destination. That is the graph-user
// protocol Hoefer & Sauerwald analyse (an O(n⁵·H(G)·log m) bound for
// uniform tasks; the paper analyses user control on K_n only), and on K_n
// with the max-degree walk it has Algorithm 6.1's law with exclude_self
// destinations. With resource_probability β > 0 it is the paper
// conclusion's mixed protocol: every overloaded resource independently acts
// resource-controlled with probability β, evicting everything from the
// first task that does not fit completely below T_r upward (Algorithm 5.1's
// rule, by heights), and otherwise leaves the decision to its users. Higher
// β drains overload in fewer rounds but moves whole suffixes at once
// (bursty traffic); the mixed_protocol bench measures both axes.
//
// Phase 1 (departure sampling) in both engines is sharded: the decisions
// are independent per overloaded resource and are analysed against the
// round-start state, so each round draws one base seed from the caller's
// stream and every fixed-size shard samples from its private
// Rng(derive_seed(round_seed, shard)) into a shard-local buffer. Shard
// boundaries depend only on the round-start state — never on
// EngineOptions::threads — so results are bitwise identical for every
// thread count (1, the default, runs the same shard partition inline).
//
// The exact engine's stream, per round: the round seed; then, when β > 0,
// one blend coin per overloaded resource in list order on the caller's
// stream; then coin c of the flat layout (one per task on a user-mode
// resource, list order, bottom to top) on Rng(derive_seed(round_seed,
// c / kCoinShardGrain)) as draw < p·2^64, with no draw at p >= 1; then one
// destination per mover on the caller's stream, leavers first, then the
// evictees of the resource-mode resources in list order.
//
// The exact engine runs phase 2 on its pool too, under the same rules: the
// merge is one bulk removal on the coin shards (each shard writes its own
// span slices and its movers at offsets its coin pass counted), and the
// scatter buckets and fills on shards of whole destination blocks.
// Destination draws, evictions, span growth and dirty marking stay on the
// calling thread in their serial order (see mem::BatchScatter).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tlb/core/grouped_state.hpp"
#include "tlb/core/metrics.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/step_phases.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::core {

/// Shared configuration for both user-protocol engines.
struct UserProtocolConfig {
  /// T_r: one value for every resource, or one per resource (the paper's
  /// future-work extension, see hetero.hpp).
  Thresholds threshold;
  double alpha = 1.0;      ///< migration dampening α (paper analysis: ε/(120(1+ε)); paper simulations: 1)
  /// K_n only: if true, the destination is uniform over the *other* n-1
  /// resources (strict complete-graph neighbourhood); if false, uniform
  /// over all n (the sampling Lemma 1 uses). Shape-equivalent; default
  /// matches Lemma 1. On a graph the walk picks the destination.
  bool exclude_self = false;
  /// Graph only: the walk each mover takes one step of.
  randomwalk::WalkKind walk = randomwalk::WalkKind::kMaxDegree;
  /// The blend β in [0, 1], exact engine only: the probability that an
  /// overloaded resource acts resource-controlled this round. 0, the
  /// default, is pure user control and draws no blend coin; the grouped
  /// engine rejects anything else.
  double resource_probability = 0.0;
  EngineOptions options;
};

/// Exact (per-task coin) engine. Reference implementation.
class UserControlledEngine {
 public:
  /// On K_n: `ts` must outlive the engine; `n` is the number of resources.
  UserControlledEngine(const tasks::TaskSet& ts, Node n,
                       UserProtocolConfig config);
  /// On `g` (one resource per node, movers walk config.walk); `g` and `ts`
  /// must outlive the engine.
  UserControlledEngine(const graph::Graph& g, const tasks::TaskSet& ts,
                       UserProtocolConfig config);

  /// Reset to a placement (plain stacking, no acceptance bookkeeping).
  void reset(const tasks::Placement& placement);

  /// One synchronous round; returns the number of migrations.
  std::size_t step(util::Rng& rng);

  /// True iff every load is <= its resource's threshold.
  [[nodiscard]] bool balanced() const;

  // engine::Balancer view (driver metrics + observers).
  /// User potential Φ(t) = Σ_r φ_r(t) against the configured thresholds.
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

  /// Read-only state (tests and traces); it owns the thresholds.
  const SystemState& state() const noexcept { return state_; }

  /// Flattened-coin shard grain: phase 1 lays the candidate coins of all
  /// overloaded resources out flat (one per task on an overloaded resource)
  /// and shards that index space, so a single giant stack — the paper's
  /// all-on-one initial condition — still splits across workers. Part of
  /// the deterministic stream definition; changing it changes results.
  static constexpr std::size_t kCoinShardGrain = 8192;

 private:
  const tasks::TaskSet* tasks_;
  UserProtocolConfig config_;  // its threshold moves into state_
  SystemState state_;
  std::optional<randomwalk::TransitionModel> walk_;  // graph engines only
  std::unique_ptr<util::ThreadPool> pool_;  // round workers (threads != 1)
  std::vector<Node> user_mode_;         // scratch: β > 0's coin resources
  std::vector<Node> resource_mode_;     // scratch: β > 0's evicted ones
  std::vector<TaskId> movers_;          // scratch
  std::vector<Node> mover_origin_;      // scratch: origin, then destination
  std::vector<std::size_t> coin_prefix_;  // scratch: flat coin index bounds
  std::vector<std::size_t> shard_movers_;  // scratch: leavers before shard
  std::vector<double> leave_p_;           // scratch: per-overloaded p
  std::vector<std::uint8_t> flat_mask_;   // scratch: flat departure mask
  // Observability: "exact.*" phases and work counters.
  StepPhases phases_;
  StepPhases::Phase sample_phase_, merge_phase_, apply_phase_;
  StepPhases::Counter m_coins_, m_departures_;
  TrackerCounters tracker_counters_;
};

/// Grouped (binomial-per-weight-class) engine: a fixed task set on the
/// shared GroupedState round. Requires a task set with at most
/// `kMaxClasses` distinct weights; throws otherwise.
class GroupedUserEngine {
 public:
  /// Upper bound on distinct weights the grouped representation accepts.
  static constexpr std::size_t kMaxClasses = 64;

  GroupedUserEngine(const tasks::TaskSet& ts, Node n, UserProtocolConfig config);

  /// Reset to a placement (task ids map to their weight classes).
  void reset(const tasks::Placement& placement);

  /// One synchronous round; returns the number of migrations.
  std::size_t step(util::Rng& rng);

  /// True iff every load is <= its resource's threshold.
  [[nodiscard]] bool balanced() const { return core_.overloaded().empty(); }

  // engine::Balancer view (driver metrics + observers).
  /// Number of resources currently above threshold.
  [[nodiscard]] std::uint32_t overloaded_count() const {
    return static_cast<std::uint32_t>(core_.overloaded().size());
  }
  /// Heaviest resource right now (see GroupedState::max_load).
  [[nodiscard]] double max_load() const { return core_.max_load(); }
  /// The threshold RunResult reports (largest configured).
  [[nodiscard]] double reported_threshold() const noexcept {
    return core_.thresholds().max();
  }
  /// Paranoid-mode check: incremental overloaded set vs brute-force rescan.
  void audit() const { core_.audit("GroupedUserEngine"); }
  /// Analytics hook: deterministic load-distribution snapshot against
  /// reported_threshold().
  void collect_load_stats(LoadStatsCalc& calc, LoadStats& out) const {
    core_.collect_load_stats(calc, out);
  }
  /// dsan hook: digest the grouped state surface (loads, per-class counts,
  /// thresholds, overloaded list) into `d` and the tracker's cost counters
  /// into `work` — the engine has no SystemState, so the generic digest
  /// cannot serve it. Const reads only; never reconciles the set.
  void collect_fingerprint(dsan::Digest& d, dsan::Digest& work) const;
  /// dsan hook: copy the per-resource load vector (bisection report).
  void collect_loads(std::vector<double>& out) const { out = core_.loads(); }

  /// Number of distinct weight classes.
  std::size_t num_classes() const noexcept { return core_.num_classes(); }
  /// Load of resource r (for tests).
  double load(Node r) const noexcept { return core_.load(r); }
  /// The user potential Σ φ_r under the canonical ascending-weight stacking.
  [[nodiscard]] double potential() const { return core_.potential(); }

 private:
  const tasks::TaskSet* tasks_;
  UserProtocolConfig config_;  // its threshold moves into core_
  GroupedState core_;
  std::vector<std::uint32_t> task_class_;  // task id -> class
  StepPhases phases_;
  StepPhases::Counter m_departure_groups_, m_departures_;
};

}  // namespace tlb::core
