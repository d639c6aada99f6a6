#pragma once
// Dynamic workload extension: the paper's protocols under churn.
//
// The paper analyses a static task set; the natural systems question is
// whether the user-controlled protocol *keeps* the system below threshold
// when tasks arrive and complete continuously and resources occasionally
// crash. This engine runs the grouped user engine's round (GroupedState)
// and adds:
//   * arrivals: `arrival_rate` new tasks per round (binomially dispersed),
//     with weights drawn from a fixed class distribution, landing on a
//     uniform resource or on a fixed hotspot;
//   * completions: each task finishes independently with probability
//     `completion_rate` per round (so steady-state population ≈
//     arrival_rate / completion_rate);
//   * crashes: each round, with probability `crash_rate`, one uniformly
//     random resource fails and its entire stack is scattered to uniform
//     random resources (fail-over), after which the resource rejoins empty.
// The threshold is recomputed from the *current* total weight every round
// (the diffusion bootstrap of footnote 1 justifies resources tracking W/n).
//
// Metrics: per-round overloaded fraction and max/avg load ratio, aggregated
// over a measurement window after warm-up by an observer run() attaches
// (step() itself computes none of them).

#include <cstdint>
#include <functional>
#include <vector>

#include "tlb/core/grouped_state.hpp"
#include "tlb/core/load_stats.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/step_phases.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/stats.hpp"

// The engine layer sits above core; the declarations below only name
// DriveOptions/RoundObserver, so core stays include-independent of it
// (callers of run(DriveOptions, rng) include tlb/engine/driver.hpp
// themselves).
namespace tlb::engine {
struct DriveOptions;
class RoundObserver;
}

namespace tlb::core {

/// Weight classes for the dynamic workload: value + arrival probability.
struct DynamicWeightClass {
  double weight = 1.0;
  double probability = 1.0;  ///< selection probability (normalised at init)
};

/// Per-round arrival-count override: (round index, rng) -> number of fresh
/// tasks. Lets tlb::workload inject Poisson or bursty/adversarial arrival
/// processes without the engine knowing about them.
using ArrivalCountFn = std::function<std::uint64_t(long, util::Rng&)>;

/// Configuration of a dynamic run.
struct DynamicConfig {
  graph::Node n = 100;                ///< resources (complete graph)
  double arrival_rate = 10.0;         ///< expected new tasks per round
  /// When set, overrides arrival_rate's binomial dispersal as the per-round
  /// arrival count (weights are still drawn from `classes`).
  ArrivalCountFn arrival_fn;
  double completion_rate = 0.01;      ///< per-task finish probability/round
  double crash_rate = 0.0;            ///< probability of one crash per round
  bool hotspot_arrivals = false;      ///< all arrivals land on resource 0
  double eps = 0.2;                   ///< above-average threshold slack
  double alpha = 1.0;                 ///< migration dampening
  std::vector<DynamicWeightClass> classes = {{1.0, 1.0}};
  /// Phase-1 sampling workers (1 = inline, 0 = hardware concurrency, k = a
  /// pool of k). Bitwise-identical results for every value — see
  /// EngineOptions::threads.
  std::size_t threads = 1;
  /// Observability sinks (optional, not owned, determinism-neutral): the
  /// engine reports "dynamic.*" phase spans and cost counters when a
  /// registry/trace is attached; detached it takes no timestamps.
  obs::Registry* registry = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// Determinism-sanitizer step probe (optional, not owned, stateful —
  /// never share one across concurrent trials). See EngineOptions::dsan.
  dsan::StepProbe* dsan = nullptr;
};

/// Aggregated steady-state metrics of one measured window.
struct DynamicMetrics {
  util::Welford overloaded_fraction;  ///< per-round fraction of loads > T
  util::Welford max_over_avg;         ///< per-round max load / average load
  util::Welford population;          ///< per-round task count
  util::Welford migrations_per_round;
  std::uint64_t crashes = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
};

/// User-controlled protocol under churn on the complete graph.
class DynamicUserEngine {
 public:
  explicit DynamicUserEngine(DynamicConfig config);

  /// One round: arrivals -> completions -> (maybe) crash -> protocol step
  /// with the threshold recomputed from the current W. Returns the number
  /// of protocol migrations performed.
  std::size_t step(util::Rng& rng);

  /// Run through engine::drive: `opt.warmup` unrecorded rounds, then
  /// `opt.measure` recorded rounds, aggregated into the returned metrics by
  /// an observer that runs first after every measured step. The unified
  /// churn entry point — the same DriveOptions grammar every other engine
  /// runs under. `observer` (optional, not owned) sees the measured rounds
  /// like any drive, after the aggregates.
  DynamicMetrics run(const engine::DriveOptions& opt, util::Rng& rng,
                     engine::RoundObserver* observer = nullptr);

  // engine::Balancer view (driver metrics + observers).
  /// True iff no load exceeds the current threshold.
  [[nodiscard]] bool balanced() const { return core_.overloaded().empty(); }
  /// Number of resources above the current threshold.
  [[nodiscard]] std::uint32_t overloaded_count() const {
    return static_cast<std::uint32_t>(core_.overloaded().size());
  }
  /// Heaviest resource right now: served from the tracker's load index in
  /// O(#buckets + #touched) while sparse threshold moves keep it live, by
  /// an O(n) scan after a dense one.
  [[nodiscard]] double max_load() const { return core_.max_load(); }
  /// User potential Φ(t) = Σ_r φ_r(t) against the current threshold.
  [[nodiscard]] double potential() const { return core_.potential(); }
  /// Analytics hook: deterministic load-distribution snapshot against the
  /// current threshold, index-served when the tracker's index is live.
  void collect_load_stats(LoadStatsCalc& calc, LoadStats& out) const {
    core_.collect_load_stats(calc, out);
  }
  /// dsan hook: digest the churn state surface (population, threshold,
  /// loads, per-class counts, overloaded list) into `d` and the tracker's
  /// cost counters into `work`. Const reads only.
  void collect_fingerprint(dsan::Digest& d, dsan::Digest& work) const;
  /// dsan hook: copy the per-resource load vector (bisection report).
  void collect_loads(std::vector<double>& out) const { out = core_.loads(); }
  /// The threshold currently in force (recomputed every round).
  [[nodiscard]] double reported_threshold() const noexcept {
    return core_.thresholds().max();
  }
  /// Paranoid-mode check: incremental overloaded set vs brute-force rescan.
  void audit() const { core_.audit("DynamicUserEngine"); }

  /// Current total weight.
  double total_weight() const noexcept { return total_weight_; }
  /// Current number of tasks.
  std::uint64_t population() const noexcept { return population_; }
  /// Current load of resource r.
  double load(graph::Node r) const noexcept { return core_.load(r); }
  /// Threshold currently in force (recomputed each round).
  double current_threshold() const noexcept { return core_.thresholds().max(); }
  /// Migrations performed in the most recent step.
  std::size_t last_migrations() const noexcept { return last_migrations_; }
  /// Lifetime event counts since construction (a window's count is the
  /// difference of two readings).
  std::uint64_t arrivals() const noexcept { return arrivals_; }
  std::uint64_t completions() const noexcept { return completions_; }
  std::uint64_t crashes() const noexcept { return crashes_; }

  /// Read-only view of the incremental overloaded tracker (tests assert
  /// reconciliation cost via flush_checks(), e.g. that a quiet round with
  /// an unchanged threshold does no full rescan).
  const OverloadedSet& overloaded_tracker() const noexcept {
    return core_.tracker();
  }

 private:
  void do_arrivals(util::Rng& rng);
  void do_completions(util::Rng& rng);
  void do_crash(util::Rng& rng);
  /// Move the threshold to the above-average one against the current total
  /// weight. A *changed* threshold flips exactly the resources whose load
  /// lies between the old and new value; the tracker re-checks that band
  /// through its LoadIndex when few resources changed since the last
  /// flush, and sweeps all n when many did (OverloadedSet::shift_threshold).
  /// A recomputation that lands on the same value — quiet rounds with no
  /// arrivals, completions or crashes — invalidates nothing, so those
  /// rounds stay O(#touched).
  void recompute_threshold();

  DynamicConfig config_;
  std::vector<double> class_cdf_;       // arrival sampling
  GroupedState core_;                   // counts, loads and the round
  double total_weight_ = 0.0;
  std::uint64_t population_ = 0;
  long round_ = 0;                      // rounds stepped since construction
  std::size_t last_migrations_ = 0;
  std::uint64_t arrivals_ = 0;          // lifetime event counts
  std::uint64_t completions_ = 0;
  std::uint64_t crashes_ = 0;

  // Observability: "dynamic.*"; core_ reports the round's own phases.
  StepPhases phases_;
  StepPhases::Phase arrivals_phase_, completions_phase_, track_phase_;
  StepPhases::Counter m_arrivals_, m_completions_, m_crashes_,
      m_threshold_changes_;
};

}  // namespace tlb::core
