#pragma once
// The unified stepping API every round-based balancing process implements.
//
// The paper's protocols (Algorithms 5.1 / 6.1 and their variants) and the
// comparison baselines (sequential/parallel threshold allocation, two-choice,
// (1+β), selfish reallocation) are all *round processes*: repeat a
// synchronous step until some completion condition holds, observing load
// metrics along the way. `Balancer` captures exactly that surface, and
// engine::drive (driver.hpp) owns the one round loop — max-rounds capping,
// warmup/measure windows, paranoid audits, observer hooks and RunResult
// accumulation. Engines have no run() of their own: callers drive them
// (drive, or reset_and_run from a placement) under one DriveOptions.
//
// Requirements (checked by the concept):
//   step(rng)            one synchronous round; returns migrations performed.
//                        The ONLY call that may consume the caller's RNG
//                        stream, so a drive() is a pure function of the seed.
//   balanced()           true iff the balancing objective currently holds
//                        (every load <= its threshold, for the threshold
//                        protocols).
//   overloaded_count()   number of resources above threshold right now.
//   max_load()           heaviest resource right now.
//   potential()          the process's natural potential function (the
//                        paper's Φ for the core engines; threshold excess
//                        for the baselines). Only evaluated when an observer
//                        asks, so it may be O(n).
//   reported_threshold() the threshold RunResult::threshold reports (the
//                        largest configured one; the current one for
//                        engines that recompute it).
//   audit()              throw if internal invariants are violated
//                        (paranoid-check mode; must not mutate or draw).
//
// Optional extensions, detected structurally by the driver:
//   done()               true iff the process cannot usefully step further.
//                        Defaults to balanced(); one-shot allocators finish
//                        without necessarily balancing, so they split the
//                        two.
//   collect_load_stats(calc, out)
//                        fill a deterministic core::LoadStats distribution
//                        snapshot (max/mean/quantiles/overload mass) for the
//                        analytics observer; engines with a live LoadIndex
//                        serve the quantiles from it. Engines exposing a
//                        `state()` SystemState get this for free through the
//                        view below. Must not draw from the RNG.

#include <concepts>
#include <cstdint>
#include <vector>

#include "tlb/core/load_stats.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::engine {

/// A round-based balancing process engine::drive can own the loop for.
template <class B>
concept Balancer = requires(B& b, const B& cb, util::Rng& rng) {
  { b.step(rng) } -> std::convertible_to<std::size_t>;
  { cb.balanced() } -> std::convertible_to<bool>;
  { cb.overloaded_count() } -> std::convertible_to<std::uint32_t>;
  { cb.max_load() } -> std::convertible_to<double>;
  { cb.potential() } -> std::convertible_to<double>;
  { cb.reported_threshold() } -> std::convertible_to<double>;
  { cb.audit() };
};

/// Type-erased, lazy view of a balancer's observable state, handed to
/// RoundObserver hooks so observers need not be templates.
class BalancerView {
 public:
  virtual ~BalancerView() = default;
  [[nodiscard]] virtual double potential() const = 0;
  [[nodiscard]] virtual std::uint32_t overloaded_count() const = 0;
  [[nodiscard]] virtual double max_load() const = 0;
  [[nodiscard]] virtual bool balanced() const = 0;
  /// Fill a deterministic load-distribution snapshot (analytics observer).
  /// Returns false when the underlying balancer offers no way to read its
  /// load vector; `out` is untouched then. `calc` is the caller's reusable
  /// scratch. Never draws from the RNG.
  virtual bool collect_load_stats(core::LoadStatsCalc& calc,
                                  core::LoadStats& out) const {
    (void)calc;
    (void)out;
    return false;
  }
  /// Fold the balancer's deterministic state surface into `d` and its
  /// bookkeeping cost counters into `work` (dsan round fingerprints).
  /// Engines may provide a `collect_fingerprint(Digest&, Digest&)` hook;
  /// SystemState-backed engines get the generic digest; everything else
  /// falls back to a coarse digest of the four observables above — weaker,
  /// but still a per-round divergence signal, and no work half. Never
  /// draws.
  virtual void collect_fingerprint(dsan::Digest& d, dsan::Digest& work) const {
    (void)work;
    d.f64(potential());
    d.u64(overloaded_count());
    d.f64(max_load());
    d.u64(balanced() ? 1 : 0);
  }
  /// Copy the per-resource load vector into `out` (dsan bisection's
  /// first-divergent-resource report). Returns false when the balancer
  /// offers no per-resource load read; `out` is untouched then.
  virtual bool collect_loads(std::vector<double>& out) const {
    (void)out;
    return false;
  }
};

namespace detail {

/// The driver's loop condition: done() where the balancer distinguishes
/// "cannot usefully step further" from "balanced", balanced() otherwise.
template <class B>
bool is_done(const B& b) {
  if constexpr (requires { { b.done() } -> std::convertible_to<bool>; }) {
    return b.done();
  } else {
    return b.balanced();
  }
}

template <Balancer B>
class ViewOf final : public BalancerView {
 public:
  explicit ViewOf(const B& b) : b_(&b) {}
  [[nodiscard]] double potential() const override { return b_->potential(); }
  [[nodiscard]] std::uint32_t overloaded_count() const override {
    return b_->overloaded_count();
  }
  [[nodiscard]] double max_load() const override { return b_->max_load(); }
  [[nodiscard]] bool balanced() const override { return b_->balanced(); }
  bool collect_load_stats(core::LoadStatsCalc& calc,
                          core::LoadStats& out) const override {
    if constexpr (requires { b_->collect_load_stats(calc, out); }) {
      b_->collect_load_stats(calc, out);
      return true;
    } else if constexpr (requires {
                           { b_->state() }
                           -> std::convertible_to<const core::SystemState&>;
                         }) {
      // SystemState-backed engines (the exact user engine on K_n or a
      // graph, resource) need no hook of their own: the state serves the
      // snapshot against its largest threshold, the engine's reported one.
      out = b_->state().load_stats(calc);
      return true;
    } else {
      return false;
    }
  }
  void collect_fingerprint(dsan::Digest& d, dsan::Digest& work) const override {
    if constexpr (requires { b_->collect_fingerprint(d, work); }) {
      b_->collect_fingerprint(d, work);
    } else if constexpr (requires {
                           { b_->state() }
                           -> std::convertible_to<const core::SystemState&>;
                         }) {
      dsan::digest_state(b_->state(), d, work);
    } else {
      BalancerView::collect_fingerprint(d, work);
    }
  }
  bool collect_loads(std::vector<double>& out) const override {
    if constexpr (requires { b_->collect_loads(out); }) {
      b_->collect_loads(out);
      return true;
    } else if constexpr (requires {
                           { b_->state() }
                           -> std::convertible_to<const core::SystemState&>;
                         }) {
      out = b_->state().loads();
      return true;
    } else {
      return false;
    }
  }

 private:
  const B* b_;
};

}  // namespace detail

}  // namespace tlb::engine
