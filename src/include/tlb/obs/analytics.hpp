#pragma once
// Convergence analytics: per-round load-distribution snapshots.
//
// The reports used to expose endpoint scalars only (rounds, migrations,
// balanced) — you could see *that* a run converged but not *how*. The
// paper's guarantees, and the evaluation style of the async/self-learning
// follow-ups (Hoefer–Sauerwald arXiv:1306.1402, Goldsztajn et al.
// arXiv:2010.15525), are about the trajectory of the load distribution:
// how the max, the upper quantiles and the overload mass decay round over
// round. LoadStatsObserver records exactly that — one core::LoadStats
// (max/mean/p50/p90/p99/overload mass/imbalance) plus the potential per
// sampled round, captured at round start like PotentialTrace, and one
// final-state snapshot.
//
// Determinism: snapshots are pure functions of the load vector (exact
// order statistics, ascending-resource sums — see core/load_stats.hpp), the
// observer never draws from the RNG, and rendering uses util::Json's
// shortest-round-trip doubles, so the JSON block is byte-identical across
// thread counts and additive-only in every report that embeds it.
//
// Engines with a live core::LoadIndex (threshold churn) serve the quantile
// queries in O(#buckets + |hit buckets|); everything else pays one O(n)
// scan per sampled round — use the every-k sampling knob where that
// matters.

#include <cstdint>
#include <string>
#include <vector>

#include "tlb/core/load_stats.hpp"
#include "tlb/engine/observer.hpp"

namespace tlb::obs {

/// Samples a deterministic load-distribution snapshot every k-th round
/// (round-start state) plus one final-state snapshot, and renders them as
/// one JSON object. Attach to engine::drive as a RoundObserver.
class LoadStatsObserver final : public engine::RoundObserver {
 public:
  /// One sampled snapshot.
  struct Row {
    long round = 0;            ///< round number (ignored for the final row)
    core::LoadStats stats;     ///< distribution snapshot
    double potential = 0.0;    ///< the balancer's potential at the same time
    bool final_state = false;  ///< true for the on_finish row
  };

  /// Sample every `every`-th measured round (1 = every round; the final
  /// snapshot is always taken). Throws std::invalid_argument on every < 1.
  explicit LoadStatsObserver(long every = 1);

  // RoundObserver hooks (engine::drive).
  void on_round(const engine::BalancerView& view, long round) override;
  void on_finish(const engine::BalancerView& view) override;

  /// False iff the observed balancer offered no load-stats hook (rows stay
  /// empty then and json() says so instead of fabricating zeros).
  bool supported() const noexcept { return supported_; }
  long every() const noexcept { return every_; }
  const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Deterministic JSON object:
  ///   {"every": k, "supported": true,
  ///    "rounds": [{"round": t, "max": ..., "mean": ..., "p50": ...,
  ///                "p90": ..., "p99": ..., "overload_mass": ...,
  ///                "overloaded": ..., "imbalance": ..., "threshold": ...,
  ///                "potential": ...}, ...],
  ///    "final": {same fields minus "round"}}
  [[nodiscard]] std::string json() const;

 private:
  void record(const engine::BalancerView& view, long round, bool final_state);

  long every_;
  bool supported_ = true;
  bool have_final_ = false;
  core::LoadStatsCalc calc_;
  std::vector<Row> rows_;
};

}  // namespace tlb::obs
