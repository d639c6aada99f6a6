#pragma once
// Threshold-free baseline: distributed selfish reallocation in the style of
// Berenbrink, Friedetzky, Goldberg, Goldberg, Hu & Martin [12] (generalised
// to weights in [13]). Every round, each task samples a uniformly random
// resource j and migrates from its resource i with probability
// max(0, 1 - x_j(t)/x_i(t)) — the classic damping that prevents herding.
//
// Contrast with the paper's protocols: no threshold, no φ; convergence is to
// (near-)balance rather than to "everyone below T". The comparison bench
// measures the time until the same threshold condition the paper's protocols
// use is met, making the runs directly comparable.

#include "tlb/core/load_stats.hpp"
#include "tlb/core/metrics.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::baselines {

/// Configuration for the selfish-reallocation baseline.
struct SelfishConfig {
  /// Stop as soon as every load is <= stop_threshold (use the same T as the
  /// protocol under comparison).
  double stop_threshold = 0.0;
  core::EngineOptions options;
};

/// Engine mirroring the user-protocol interface.
class SelfishReallocEngine {
 public:
  SelfishReallocEngine(const tasks::TaskSet& ts, graph::Node n,
                       SelfishConfig config);

  /// Reset to the given placement.
  void reset(const tasks::Placement& placement);
  /// One synchronous round; returns migrations.
  std::size_t step(util::Rng& rng);
  /// True iff every load is <= stop_threshold.
  [[nodiscard]] bool balanced() const;
  /// Run until balanced or max_rounds (engine::drive under the hood).
  core::RunResult run(util::Rng& rng);
  /// Convenience: reset + run.
  core::RunResult run(const tasks::Placement& placement, util::Rng& rng);

  // engine::Balancer view (driver metrics + observers).
  /// Threshold excess Σ_r max(0, load_r - stop_threshold).
  [[nodiscard]] double potential() const;
  /// Number of resources above stop_threshold (O(n); observer-only).
  [[nodiscard]] std::uint32_t overloaded_count() const;
  /// Heaviest resource right now.
  [[nodiscard]] double max_load() const;
  [[nodiscard]] double reported_threshold() const noexcept {
    return config_.stop_threshold;
  }
  /// Paranoid-mode check: loads reconcile with the task locations.
  void audit() const;
  /// Analytics hook: deterministic load-distribution snapshot against
  /// stop_threshold (O(n) scan — this engine keeps no load index).
  void collect_load_stats(core::LoadStatsCalc& calc,
                          core::LoadStats& out) const {
    out = calc.compute_scan(n_, config_.stop_threshold,
                            [this](graph::Node r) { return loads_[r]; });
  }

  /// Current loads (tests).
  const std::vector<double>& loads() const noexcept { return loads_; }

 private:
  const tasks::TaskSet* tasks_;
  SelfishConfig config_;
  graph::Node n_;
  std::vector<graph::Node> task_location_;
  std::vector<double> loads_;
};

}  // namespace tlb::baselines
