#pragma once
// engine::drive — the one round-loop driver.
//
// drive() is the round loop — check balance, maybe audit, step, notify the
// observers, repeat until the cap — once, for anything satisfying the
// Balancer concept: the paper's five core engines, the six comparison
// baselines, the perf suite's arena churn, and whatever protocol lands
// next. It is the only round loop in the library, and DriveOptions is the
// only place its knobs are set.
//
// Two modes, selected by DriveOptions::measure:
//   * run-to-balance (measure < 0, the default): loop until done() or
//     max_rounds. The batch protocols' semantics.
//   * warmup + measure (measure >= 0): step `warmup` unobserved rounds,
//     then `measure` observed ones. The churn semantics; the driver calls
//     nothing on the balancer between rounds, so a measured round costs
//     what an unobserved one does plus whatever the observers ask for
//     (DynamicUserEngine::run attaches its window aggregates as one).
//
// Determinism contract: drive() itself never draws from `rng`; only
// step(rng) does. Observers see const views. A drive is therefore bitwise
// reproducible from (balancer state, seed).

#include <utility>

#include "tlb/core/metrics.hpp"
#include "tlb/engine/balancer.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/obs/profile.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::engine {

/// The loop's knobs: the only place the round cap and the paranoid audits
/// are set. An engine's own knobs (threads, its sinks, the dsan probe) are
/// core::EngineOptions'. An aggregate, so a call site names what it sets:
/// drive(e, rng, {.max_rounds = 2000}).
struct DriveOptions {
  long max_rounds = 10000000;  ///< run-to-balance hard stop
  /// Audit the balancer before every round, warmup included, and once after
  /// the loop (throws on a violated invariant; never mutates, never draws).
  bool paranoid_checks = false;
  long warmup = 0;    ///< measure mode: unobserved leading rounds
  /// >= 0 switches to warmup+measure mode with exactly this many measured
  /// rounds; < 0 runs to balance (max_rounds-capped).
  long measure = -1;

  // Observability sinks (optional, not owned). With both null — the
  // default — drive() registers nothing and takes no timestamps.
  obs::Registry* registry = nullptr;  ///< drive.rounds / round timings
  obs::TraceWriter* trace = nullptr;  ///< per-round "drive.round" spans
};

/// Run `balancer` under `opt`, notifying `observer` (may be null), and
/// return the accumulated RunResult. Per-round traces come from observers
/// (PotentialTrace, OverloadedTrace, obs::LoadStatsObserver, ...).
template <Balancer B>
core::RunResult drive(B& balancer, util::Rng& rng,
                      const DriveOptions& opt = {},
                      RoundObserver* observer = nullptr) {
  detail::ViewOf<B> view(balancer);
  core::RunResult result;

  // Driver-level observability: measured-round count (deterministic) and
  // per-round step() wall time (timing class — counter + latency histogram
  // + trace span). All dormant when no sink is attached.
  const obs::Sink sink{opt.registry, opt.trace};
  obs::MetricId m_rounds, m_round_ns, h_round_us;
  if (opt.registry != nullptr) {
    using obs::MetricClass;
    m_rounds = opt.registry->counter("drive.rounds",
                                     MetricClass::kDeterministic);
    m_round_ns = opt.registry->counter("drive.round_ns", MetricClass::kTiming);
    h_round_us = opt.registry->histogram("drive.round_us", 0.0, 50000.0, 50,
                                         MetricClass::kTiming);
  }

  const auto measured_round = [&] {
    if (observer != nullptr) observer->on_round(view, result.rounds);
    if (opt.paranoid_checks) balancer.audit();
    const std::uint64_t t0 = sink.attached() ? obs::monotonic_ns() : 0;
    const std::size_t moved = balancer.step(rng);
    if (sink.attached()) {
      const std::uint64_t dur = obs::monotonic_ns() - t0;
      if (opt.registry != nullptr) {
        opt.registry->add(m_rounds, 1);
        opt.registry->add(m_round_ns, dur);
        opt.registry->observe(h_round_us, static_cast<double>(dur) / 1000.0);
      }
      if (opt.trace != nullptr) opt.trace->complete("drive.round", t0, dur);
    }
    result.migrations += moved;
    if (observer != nullptr) {
      observer->on_round_end(view, result.rounds, moved);
    }
    ++result.rounds;
  };

  if (opt.measure >= 0) {
    for (long t = 0; t < opt.warmup; ++t) {
      if (opt.paranoid_checks) balancer.audit();
      balancer.step(rng);
    }
    for (long t = 0; t < opt.measure; ++t) measured_round();
  } else {
    while (!detail::is_done(balancer) && result.rounds < opt.max_rounds) {
      measured_round();
    }
  }

  if (observer != nullptr) observer->on_finish(view);
  if (opt.paranoid_checks) balancer.audit();
  result.balanced = balancer.balanced();
  result.final_max_load = balancer.max_load();
  result.threshold = balancer.reported_threshold();
  return result;
}

/// Reset `balancer` to `placement`, then drive it.
template <Balancer B>
core::RunResult reset_and_run(B& balancer, const tasks::Placement& placement,
                              util::Rng& rng, const DriveOptions& opt = {},
                              RoundObserver* observer = nullptr) {
  balancer.reset(placement);
  return drive(balancer, rng, opt, observer);
}

}  // namespace tlb::engine
