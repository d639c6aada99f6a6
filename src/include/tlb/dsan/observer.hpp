#pragma once
// dsan::FingerprintObserver — per-round state fingerprinting as a
// composable engine::RoundObserver.
//
// Attached to engine::drive, it digests the balancer's deterministic state
// surface after every measured round through
// BalancerView::collect_fingerprint, and — when a StepProbe is wired to the
// same engine — folds the probe's draw accounting (master draws, per-shard
// counts, RNG cursor) and phase sub-digests into the row.
//
// The rows are the golden-trace payload: byte-identical across
// --engine-threads by the library's core contract, so recording them once
// and checking them on every configuration turns "two runs diverged
// somewhere" into "round 41 diverged".
//
// Observers never draw from the RNG; fingerprinting reads const state only
// (the tracker is digested without reconciling), so attaching the
// sanitizer cannot change any result or deterministic counter.

#include <cstdint>
#include <string>
#include <vector>

#include "tlb/dsan/fingerprint.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/obs/registry.hpp"

namespace tlb::dsan {

/// One fingerprinted round (or the trailing final-state snapshot).
struct Row {
  long round = -1;
  bool final_state = false;
  std::uint64_t fp = 0;        ///< state fingerprint (state ⊕ draws)
  std::uint64_t work_fp = 0;   ///< work digest (tracker cost counters)
  std::uint64_t state_fp = 0;  ///< state-surface digest alone
  std::uint64_t draw_fp = 0;   ///< probe record digest (0 when no probe)
  bool has_draws = false;      ///< a probe record was folded in
  std::vector<PhaseDigest> phases;  ///< detail rounds only
};

class FingerprintObserver final : public engine::RoundObserver {
 public:
  /// `probe` (optional) supplies draw accounting + phase digests for the
  /// engine it is wired to; `registry` (optional) receives the dsan
  /// deterministic counters at on_finish. Neither is owned.
  explicit FingerprintObserver(StepProbe* probe = nullptr,
                               obs::Registry* registry = nullptr);

  /// Capture the per-resource load vector at the end of round `round`
  /// (the bisector's first-divergent-resource rerun). -1 = never.
  void set_capture_round(long round) noexcept { capture_round_ = round; }

  /// One row per measured round: its round-end state.
  void on_round_end(const engine::BalancerView& view, long round,
                    std::size_t migrations) override;
  /// The trailing final-state row (and the dsan counters, if a registry
  /// is attached).
  void on_finish(const engine::BalancerView& view) override;

  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }
  /// The load vector captured at the configured round (empty if none yet).
  [[nodiscard]] const std::vector<double>& captured_loads() const noexcept {
    return captured_loads_;
  }

  /// Deterministic JSON array of the rows:
  ///   [{"round":0,"fp":"<hex16>","work":"<hex16>"},...,
  ///    {"final":true,"fp":"<hex16>","work":"<hex16>"}]
  /// with a "phases" object on detail rows. Same --timings=false
  /// discipline as every report: no wall-clock, no thread counts.
  [[nodiscard]] std::string json() const;

 private:
  void push_row(const engine::BalancerView& view, long round,
                bool final_state);

  StepProbe* probe_;
  obs::Registry* registry_;
  long capture_round_ = -1;
  std::vector<Row> rows_;
  std::vector<double> captured_loads_;
};

/// Render rows standalone (trace module uses this for sections).
[[nodiscard]] std::string render_rows(const std::vector<Row>& rows);

}  // namespace tlb::dsan
