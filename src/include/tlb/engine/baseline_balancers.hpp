#pragma once
// The related-work allocators as engine::Balancer processes.
//
// Each balancer below owns the process state (bin loads, unplaced balls)
// and exposes the same step()/balanced()/observable surface as the paper's
// engines, so engine::drive runs paper protocols and related-work baselines
// head-to-head from the same spec grammar, with the same observers, audits
// and deterministic RunResult accumulation. Benches that only want an
// allocation call step() once (the one-shot allocators) or drive the
// balancer (parallel threshold) and read the loads and counters off it.
//
// Round semantics:
//   * SequentialThresholdBalancer, ChoiceBalancer and FirstFitBalancer are
//     one-shot allocators: their whole (sequential) allocation is one
//     synchronous "round of global coordination", so step() performs it
//     entirely and done() is true afterwards. done() and balanced()
//     differ: a two-choice allocation is *done* after its round but only
//     *balanced* if the resulting maximum load meets the threshold it is
//     being compared against.
//   * ParallelThresholdBalancer is genuinely round-based (every unplaced
//     ball proposes once per round) and maps 1:1 onto step().
//   * SelfishReallocBalancer is round-based too, but migrates tasks from a
//     placement (reset()) instead of allocating unplaced balls; its
//     threshold only decides when the comparison counts it balanced.

#include <cstdint>
#include <vector>

#include "tlb/core/load_stats.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/tasks/first_fit.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::engine {

/// The [5] threshold for unit balls, ceil(m/n) + 1, generalised to weights
/// as W/n + w_max (the proper-assignment bound, always feasible).
double suggested_threshold(const tasks::TaskSet& ts, graph::Node n);

/// Observable-state base shared by the bin-model baselines: a flat load
/// vector measured against one comparison threshold. Provides every
/// Balancer view method except step()/done(), which each process defines.
class BinLoadBalancer {
 public:
  /// True iff every bin load is <= the comparison threshold.
  [[nodiscard]] bool balanced() const;
  /// Number of bins above the comparison threshold (O(n); observer-only).
  [[nodiscard]] std::uint32_t overloaded_count() const;
  /// Heaviest bin right now.
  [[nodiscard]] double max_load() const;
  /// Threshold excess Σ_r max(0, load_r - T) — the natural potential of a
  /// threshold comparison (0 iff balanced).
  [[nodiscard]] double potential() const;
  [[nodiscard]] double reported_threshold() const noexcept {
    return threshold_;
  }
  /// Paranoid-mode invariant check; derived classes extend it with their
  /// own placement bookkeeping (throws std::logic_error on violation).
  void audit() const;
  /// Analytics hook: deterministic load-distribution snapshot against the
  /// comparison threshold (O(n) scan — the bin model keeps no load index).
  void collect_load_stats(core::LoadStatsCalc& calc,
                          core::LoadStats& out) const;

  const std::vector<double>& loads() const noexcept { return loads_; }

 protected:
  /// `threshold` is the comparison threshold (balanced()/potential());
  /// whether it also constrains placement is up to the derived process.
  BinLoadBalancer(const tasks::TaskSet& ts, graph::Node n, double threshold,
                  const char* who);
  ~BinLoadBalancer() = default;

  /// Throw unless Σ loads == `expected_weight` (tolerates fp re-ordering).
  void check_total_weight(double expected_weight, const char* who) const;

  const tasks::TaskSet* tasks_;
  graph::Node n_;
  double threshold_;
  std::vector<double> loads_;
};

/// Berenbrink et al. [5]: balls arrive one at a time, each retries uniform
/// bins until one keeps load + w <= threshold. One-shot (step() allocates
/// everything); `completed()` is false iff some ball exhausted its retries.
class SequentialThresholdBalancer final : public BinLoadBalancer {
 public:
  /// Bin probes a ball may make before the allocation gives up on it.
  static constexpr int kMaxRetriesPerBall = 100000;

  SequentialThresholdBalancer(const tasks::TaskSet& ts, graph::Node n,
                              double threshold);

  /// Allocate all balls (first call only); returns balls placed.
  std::size_t step(util::Rng& rng);
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// A completed sequential-threshold allocation is balanced by
  /// construction; an incomplete one is not.
  [[nodiscard]] bool balanced() const noexcept { return done_ && completed_; }
  void audit() const;

  bool completed() const noexcept { return completed_; }
  std::size_t placed() const noexcept { return placed_; }
  /// Total random bin probes ([5]'s communication measure).
  std::uint64_t choices() const noexcept { return choices_; }

 private:
  bool done_ = false;
  bool completed_ = false;
  std::size_t placed_ = 0;
  std::uint64_t choices_ = 0;
};

/// Adler et al. [4]: synchronous rounds; every unplaced ball proposes one
/// uniform bin, bins accept while the round's threshold holds. Genuinely
/// round-based: one step() = one proposal round.
class ParallelThresholdBalancer final : public BinLoadBalancer {
 public:
  ParallelThresholdBalancer(const tasks::TaskSet& ts, graph::Node n,
                            double threshold);

  /// One proposal round; returns balls placed this round.
  std::size_t step(util::Rng& rng);
  [[nodiscard]] bool done() const noexcept { return unplaced_.empty(); }
  /// Placed balls respect the threshold by construction, so balance ==
  /// every ball placed.
  [[nodiscard]] bool balanced() const noexcept { return unplaced_.empty(); }
  void audit() const;

  std::size_t placed() const noexcept { return placed_; }
  std::size_t unplaced() const noexcept { return unplaced_.size(); }
  /// Total ball->bin proposals ([4]'s communication measure).
  std::uint64_t messages() const noexcept { return messages_; }

 private:
  std::vector<tasks::TaskId> unplaced_;
  std::vector<tasks::TaskId> still_unplaced_;  // scratch
  std::size_t placed_ = 0;
  std::uint64_t messages_ = 0;
};

/// Multiple-choice allocation, one-shot: each ball, with probability
/// `beta` joins one uniform bin, and otherwise samples `choices` uniform
/// bins and joins the least loaded (the first one on ties). The β-coin is
/// drawn only when beta > 0. (d, 0) is Talwar & Wieder's greedy d-choice
/// [9] (d = 1: purely random); (2, β) is Peres, Talwar & Wieder's (1+β)
/// process [11].
class ChoiceBalancer final : public BinLoadBalancer {
 public:
  ChoiceBalancer(const tasks::TaskSet& ts, graph::Node n, int choices,
                 double beta, double threshold);

  std::size_t step(util::Rng& rng);
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool balanced() const {
    return done_ && BinLoadBalancer::balanced();
  }
  void audit() const;

  /// max_load - W/n, the gap the multiple-choice literature tracks.
  double gap() const;

 private:
  int choices_;
  double beta_;
  bool done_ = false;
};

/// Threshold-free selfish reallocation in the style of Berenbrink,
/// Friedetzky, Goldberg, Goldberg, Hu & Martin [12] (generalised to weights
/// in [13]). Every round, each task samples a uniform resource j and
/// migrates from its resource i with probability max(0, 1 - x_j/x_i),
/// both loads read at the round start — the classic damping that prevents
/// herding. No threshold and no φ: the process converges to (near-)balance,
/// and `stop_threshold` (the T of the protocol under comparison) only
/// decides balanced(), so the runs are directly comparable.
class SelfishReallocBalancer final : public BinLoadBalancer {
 public:
  SelfishReallocBalancer(const tasks::TaskSet& ts, graph::Node n,
                         double stop_threshold);

  /// Reset to the given placement.
  void reset(const tasks::Placement& placement);
  /// One synchronous round; returns migrations.
  std::size_t step(util::Rng& rng);
  /// Loads reconcile with the task locations. No non-negativity check: a
  /// resource emptied by float subtraction can end an ulp below zero.
  void audit() const;

 private:
  std::vector<graph::Node> task_location_;
};

/// The centralized first-fit yardstick (Section 5.2's "proper assignment"):
/// one round of global coordination, max load <= W/n + w_max guaranteed.
/// Deterministic — step() ignores the RNG.
class FirstFitBalancer final : public BinLoadBalancer {
 public:
  /// The comparison threshold defaults to the proper-assignment bound
  /// W/n + w_max, under which first fit always balances.
  FirstFitBalancer(const tasks::TaskSet& ts, graph::Node n);
  FirstFitBalancer(const tasks::TaskSet& ts, graph::Node n, double threshold);

  std::size_t step(util::Rng& rng);
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool balanced() const {
    return done_ && BinLoadBalancer::balanced();
  }
  void audit() const;

  /// The computed placement (valid once done()).
  const tasks::ProperAssignment& assignment() const noexcept {
    return assignment_;
  }

 private:
  bool done_ = false;
  tasks::ProperAssignment assignment_;
};

}  // namespace tlb::engine
