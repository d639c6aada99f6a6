#pragma once
// core::StepPhases — the one instrumentation seam of an engine's round.
//
// A phase times itself into "<engine>.<phase>_ns", emits that span and,
// when the dsan probe asks, records the sub-digest "<phase>". The seam also
// registers the engines' work counters and brackets steps for the probe;
// the shard-level probe calls stay in the engines. Detached, a step reads
// no clock, allocates nothing, does no string work and runs no digest.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "tlb/core/metrics.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/obs/profile.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::core {

class StepPhases {
 public:
  /// A registered phase: "<engine>.<phase>" (a string literal, which the
  /// trace writer keeps) and its timing counter.
  struct Phase {
    const char* span = nullptr;
    obs::MetricId ns;
  };
  /// A registered deterministic work counter.
  struct Counter {
    obs::Registry* registry = nullptr;
    obs::MetricId id;
    void add(std::uint64_t delta) const {
      if (registry != nullptr) registry->add(id, delta);
    }
  };

  StepPhases() = default;
  /// Sinks and probe are optional and not owned.
  StepPhases(obs::Registry* registry, obs::TraceWriter* trace,
             dsan::StepProbe* probe)
      : sink_{registry, trace}, probe_(probe) {}
  explicit StepPhases(const EngineOptions& opt)
      : StepPhases(opt.registry, opt.trace, opt.dsan) {}

  /// Register phase `span` and its timing counter now, so the registry
  /// lists an engine's phases in the order it registers them.
  [[nodiscard]] Phase phase(const char* span) const {
    Phase p{span, {}};
    if (sink_.registry != nullptr) {
      p.ns = sink_.registry->counter(std::string(span) + "_ns",
                                     obs::MetricClass::kTiming);
    }
    return p;
  }
  /// Register the deterministic counter `name` now.
  [[nodiscard]] Counter work_counter(const std::string& name) const {
    if (sink_.registry == nullptr) return {};
    return {sink_.registry, sink_.registry->counter(
                                name, obs::MetricClass::kDeterministic)};
  }

  /// Time phase `p` until the returned span is destroyed.
  [[nodiscard]] obs::PhaseSpan time(const Phase& p) const {
    return {sink_, p.ns, p.span};
  }
  /// Record phase `p`'s sub-digest, computed by `fold(digest)` only when
  /// the probe wants phases this step.
  template <class Fold>
  void digest(const Phase& p, Fold&& fold) const {
    if (probe_ == nullptr || !probe_->want_phases()) return;
    dsan::Digest d;
    fold(d);
    probe_->phase(std::strchr(p.span, '.') + 1, d.value());
  }

  void begin_step(util::Rng& rng) const {
    if (probe_ != nullptr) probe_->begin_step(rng);
  }
  void end_step(util::Rng& rng) const {
    if (probe_ != nullptr) probe_->end_step(rng);
  }
  /// Report `pool`'s tasks and busy/idle time (pool.*) to the sinks.
  void attach(util::ThreadPool& pool) const {
    if (sink_.attached()) pool.attach_probe(sink_.registry, sink_.trace);
  }

  dsan::StepProbe* probe() const noexcept { return probe_; }

 private:
  obs::Sink sink_;
  dsan::StepProbe* probe_ = nullptr;
};

/// An overloaded tracker's lifetime cost counters, exported as per-step
/// deltas and registered in this order: "<engine>.flush_checks",
/// "<engine>.dirty_marks", "index.band_size", "index.bucket_moves",
/// "index.reconciled", "<engine>.sweeps".
class TrackerCounters {
 public:
  /// Register the counters and count from the tracker's current totals.
  void attach(const StepPhases& phases, const std::string& engine,
              const OverloadedSet& tracker) {
    counters_ = {phases.work_counter(engine + ".flush_checks"),
                 phases.work_counter(engine + ".dirty_marks"),
                 phases.work_counter("index.band_size"),
                 phases.work_counter("index.bucket_moves"),
                 phases.work_counter("index.reconciled"),
                 phases.work_counter(engine + ".sweeps")};
    exported_ = totals(tracker);
  }
  /// Add each counter's growth since the last export (or attach).
  void export_deltas(const OverloadedSet& tracker) {
    if (counters_[0].registry == nullptr) return;
    const std::array<std::uint64_t, kCounters> now = totals(tracker);
    for (std::size_t i = 0; i < kCounters; ++i) {
      counters_[i].add(now[i] - exported_[i]);
    }
    exported_ = now;
  }

 private:
  static constexpr std::size_t kCounters = 6;

  static std::array<std::uint64_t, kCounters> totals(
      const OverloadedSet& tracker) {
    const LoadIndex& idx = tracker.load_index();
    return {tracker.flush_checks(), tracker.dirty_marks(), idx.band_size(),
            idx.bucket_moves(),     idx.reconciled(),      tracker.sweeps()};
  }

  std::array<StepPhases::Counter, kCounters> counters_{};
  std::array<std::uint64_t, kCounters> exported_{};
};

}  // namespace tlb::core
