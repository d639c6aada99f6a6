#pragma once
// Composable round observers for engine::drive.
//
// The driver calls the hooks below at well-defined points, and callers
// compose exactly the instrumentation they want — potential traces,
// overloaded traces, per-round JSON, load-distribution analytics, dsan
// fingerprints, the churn engine's window aggregates, the perf suite's step
// timer — without the engines knowing any of it exists.
// Observers are the only way to trace a run; the engines carry no tracing
// flags.
//
// Hook order per measured round t (no hook may touch the caller's RNG):
//   on_round(view, t)           round-start state, before step()
//   [paranoid audit]
//   step()
//   on_round_end(view, t, mig)  round-end state + migrations of round t
// and once after the loop:
//   on_finish(view)             final state (legacy traces' trailing entry)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tlb/engine/balancer.hpp"

namespace tlb::engine {

/// Interface the driver notifies; every hook defaults to a no-op.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  /// Round-start state of measured round `round`, before step().
  virtual void on_round(const BalancerView& view, long round) {
    (void)view;
    (void)round;
  }
  /// Round-end state of measured round `round`; `migrations` is what its
  /// step() returned.
  virtual void on_round_end(const BalancerView& view, long round,
                            std::size_t migrations) {
    (void)view;
    (void)round;
    (void)migrations;
  }
  /// Final state, exactly once, after the loop ends for any reason.
  virtual void on_finish(const BalancerView& view) { (void)view; }
};

/// Records Φ at the start of every round plus one trailing entry for the
/// final state: trace[t] = Φ(t), so a run of R rounds yields R + 1 entries.
class PotentialTrace final : public RoundObserver {
 public:
  void on_round(const BalancerView& view, long) override {
    trace_.push_back(view.potential());
  }
  void on_finish(const BalancerView& view) override {
    trace_.push_back(view.potential());
  }
  const std::vector<double>& trace() const noexcept { return trace_; }
  std::vector<double> take() { return std::move(trace_); }

 private:
  std::vector<double> trace_;
};

/// Records the overloaded-resource count at the start of every round plus
/// the final state, same shape as PotentialTrace.
class OverloadedTrace final : public RoundObserver {
 public:
  void on_round(const BalancerView& view, long) override {
    trace_.push_back(view.overloaded_count());
  }
  void on_finish(const BalancerView& view) override {
    trace_.push_back(view.overloaded_count());
  }
  const std::vector<std::uint32_t>& trace() const noexcept { return trace_; }
  std::vector<std::uint32_t> take() { return std::move(trace_); }

 private:
  std::vector<std::uint32_t> trace_;
};

/// Collects one record per round and renders a deterministic JSON array of
///   {"round": t, "potential": ..., "overloaded": ..., "migrations": ...}
/// with a trailing final-state record ("round": -1 is never used; the final
/// record carries "final": true instead of migrations).
class JsonTraceSink final : public RoundObserver {
 public:
  void on_round_end(const BalancerView& view, long round,
                    std::size_t migrations) override;
  void on_finish(const BalancerView& view) override;
  /// The rendered JSON array (valid once the drive returned).
  [[nodiscard]] std::string json() const;
  /// Measured rounds recorded — excludes the trailing final-state record
  /// appended by on_finish, which is a state snapshot, not a round.
  std::size_t rounds_recorded() const noexcept { return measured_rounds_; }

 private:
  struct Row {
    long round;
    double potential;
    std::uint32_t overloaded;
    std::uint64_t migrations;
    bool final_state;
  };
  std::vector<Row> rows_;
  std::size_t measured_rounds_ = 0;
};

/// Fans every hook out to a list of observers, in insertion order (the
/// driver takes a single RoundObserver*; this is how several compose).
class ObserverList final : public RoundObserver {
 public:
  ObserverList() = default;
  explicit ObserverList(std::vector<RoundObserver*> observers)
      : observers_(std::move(observers)) {}
  void add(RoundObserver* observer) { observers_.push_back(observer); }
  bool empty() const noexcept { return observers_.empty(); }
  /// nullptr when empty, so callers can pass `list.or_null()` to drive.
  RoundObserver* or_null() noexcept { return observers_.empty() ? nullptr : this; }

  void on_round(const BalancerView& view, long round) override {
    for (RoundObserver* o : observers_) o->on_round(view, round);
  }
  void on_round_end(const BalancerView& view, long round,
                    std::size_t migrations) override {
    for (RoundObserver* o : observers_) o->on_round_end(view, round, migrations);
  }
  void on_finish(const BalancerView& view) override {
    for (RoundObserver* o : observers_) o->on_finish(view);
  }

 private:
  std::vector<RoundObserver*> observers_;
};

}  // namespace tlb::engine
