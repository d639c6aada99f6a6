// Differential tests for the engine::drive round-loop driver: for every
// engine and every engine-thread count in {1, 2, 0}, reset_and_run and a
// drive with PotentialTrace/OverloadedTrace observers attached must
// produce bitwise-identical results and traces to a hand-rolled replica of
// the pre-driver loop executed through the public
// step()/balanced()/potential()/... surface. This pins the driver's loop
// structure, trace shape and RNG-stream discipline to the legacy
// semantics: only step() may draw, traces carry one entry per round plus a
// trailing final-state entry, and the loop stops exactly at balance or the
// cap. Also covers the observer set (trace observers, JsonTraceSink,
// ObserverList), the hook order every observer sees in each drive mode,
// the warmup/measure drive mode the dynamic engine runs under, and the
// paranoid audits of both modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;
using core::RunResult;
using engine::DriveOptions;
using tasks::Placement;
using tasks::TaskSet;
using util::Rng;

// Engine-thread counts the differential runs cover (1 = inline, 2 = small
// pool, 0 = hardware concurrency). Engines without threaded phase-1
// sampling have no such knob; they run each leg the same way.
const std::size_t kThreadCounts[] = {1, 2, 0};

/// A run's result plus its per-round potential and overloaded traces.
struct TracedRun {
  RunResult result;
  std::vector<double> potential;
  std::vector<std::uint32_t> overloaded;
};

/// The pre-driver round loop, reconstructed over the public Balancer
/// surface. Every engine's run() used to be exactly this (modulo which
/// potential function and overloaded counter it inlined — now exposed as
/// potential()/overloaded_count()), traces included.
template <class Engine>
TracedRun reference_run(Engine& engine, const DriveOptions& opt, Rng& rng) {
  TracedRun run;
  RunResult& result = run.result;
  while (!engine.balanced() && result.rounds < opt.max_rounds) {
    run.potential.push_back(engine.potential());
    run.overloaded.push_back(engine.overloaded_count());
    result.migrations += engine.step(rng);
    ++result.rounds;
  }
  run.potential.push_back(engine.potential());
  run.overloaded.push_back(engine.overloaded_count());
  result.balanced = engine.balanced();
  result.final_max_load = engine.max_load();
  result.threshold = engine.reported_threshold();
  return run;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what, std::size_t threads) {
  EXPECT_EQ(a.rounds, b.rounds) << what << " threads=" << threads;
  EXPECT_EQ(a.balanced, b.balanced) << what << " threads=" << threads;
  EXPECT_EQ(a.migrations, b.migrations) << what << " threads=" << threads;
  EXPECT_EQ(a.threshold, b.threshold) << what << " threads=" << threads;
  EXPECT_EQ(a.final_max_load, b.final_max_load)
      << what << " threads=" << threads;
}

void expect_identical(const TracedRun& a, const TracedRun& b,
                      const char* what, std::size_t threads) {
  expect_identical(a.result, b.result, what, threads);
  ASSERT_EQ(a.potential.size(), b.potential.size())
      << what << " threads=" << threads;
  for (std::size_t i = 0; i < a.potential.size(); ++i) {
    EXPECT_EQ(a.potential[i], b.potential[i])
        << what << " threads=" << threads << " round " << i;
  }
  ASSERT_EQ(a.overloaded.size(), b.overloaded.size())
      << what << " threads=" << threads;
  for (std::size_t i = 0; i < a.overloaded.size(); ++i) {
    EXPECT_EQ(a.overloaded[i], b.overloaded[i])
        << what << " threads=" << threads << " round " << i;
  }
}

/// Build three identically-configured engines and run one through the
/// legacy replica, one through reset_and_run and one through an explicit
/// drive with trace observers; all must agree bitwise.
template <class MakeEngine>
void differential(const char* what, MakeEngine&& make,
                  const DriveOptions& opt, const Placement& start,
                  std::uint64_t seed) {
  for (std::size_t threads : kThreadCounts) {
    auto legacy = make(threads);
    legacy.reset(start);
    Rng legacy_rng(seed);
    const TracedRun expected = reference_run(legacy, opt, legacy_rng);

    auto driven = make(threads);
    Rng driven_rng(seed);
    expect_identical(expected.result,
                     engine::reset_and_run(driven, start, driven_rng, opt),
                     what, threads);

    auto composed = make(threads);
    composed.reset(start);
    Rng composed_rng(seed);
    engine::PotentialTrace potential;
    engine::OverloadedTrace overloaded;
    engine::ObserverList observers({&potential, &overloaded});
    TracedRun traced;
    traced.result = engine::drive(composed, composed_rng, opt, &observers);
    traced.potential = potential.take();
    traced.overloaded = overloaded.take();
    expect_identical(expected, traced, what, threads);
  }
}

TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

TaskSet two_point_tasks(std::size_t m) {
  std::vector<double> w(m, 1.0);
  for (std::size_t i = 0; i < m; i += 10) w[i] = 8.0;
  return TaskSet(std::move(w));
}

const DriveOptions kTraced{.max_rounds = 100000};

TEST(EngineDriverTest, ExactEngineMatchesLegacyLoop) {
  const graph::Node n = 48;
  const TaskSet ts = continuous_tasks(4096, 0xA11CE);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  differential(
      "exact",
      [&](std::size_t threads) {
        core::UserProtocolConfig cfg;
        cfg.threshold = T;
        cfg.options.threads = threads;
        return core::UserControlledEngine(ts, n, cfg);
      },
      kTraced, tasks::all_on_one(ts), 901);
}

TEST(EngineDriverTest, GroupedEngineMatchesLegacyLoop) {
  const graph::Node n = 96;
  const TaskSet ts = two_point_tasks(2048);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  differential(
      "grouped",
      [&](std::size_t threads) {
        core::UserProtocolConfig cfg;
        cfg.threshold = T;
        cfg.options.threads = threads;
        return core::GroupedUserEngine(ts, n, cfg);
      },
      kTraced, tasks::all_on_one(ts), 902);
}

TEST(EngineDriverTest, GraphUserProtocolMatchesLegacyLoop) {
  const graph::Graph g = graph::hypercube(6);
  const TaskSet ts = continuous_tasks(512, 0xBEE);
  const double T =
      1.25 * ts.total_weight() / g.num_nodes() + ts.max_weight();
  differential(
      "graphuser",
      [&](std::size_t threads) {
        core::UserProtocolConfig cfg;
        cfg.threshold = T;
        cfg.options.threads = threads;
        return core::UserControlledEngine(g, ts, cfg);
      },
      kTraced, tasks::all_on_one(ts), 903);
}

TEST(EngineDriverTest, MixedEngineMatchesLegacyLoop) {
  const graph::Graph g = graph::hypercube(6);
  const TaskSet ts = continuous_tasks(512, 0xCAFE);
  const double T =
      1.25 * ts.total_weight() / g.num_nodes() + ts.max_weight();
  differential(
      "mixed",
      [&](std::size_t threads) {
        core::UserProtocolConfig cfg;
        cfg.threshold = T;
        cfg.resource_probability = 0.5;
        cfg.options.threads = threads;
        return core::UserControlledEngine(g, ts, cfg);
      },
      kTraced, tasks::all_on_one(ts), 904);
}

TEST(EngineDriverTest, ResourceEngineMatchesLegacyLoop) {
  const graph::Graph g = graph::hypercube(6);
  const TaskSet ts = continuous_tasks(512, 0xD00D);
  const double T =
      1.25 * ts.total_weight() / g.num_nodes() + ts.max_weight();
  differential(
      "resource",
      [&](std::size_t threads) {
        core::ResourceProtocolConfig cfg;
        cfg.threshold = T;
        cfg.options.threads = threads;
        return core::ResourceControlledEngine(g, ts, cfg);
      },
      kTraced, tasks::all_on_one(ts), 905);
}

TEST(EngineDriverTest, SelfishEngineMatchesLegacyLoop) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(512, 0xFEED);
  const double T = 1.5 * ts.total_weight() / n + ts.max_weight();
  differential(
      "selfish",
      [&](std::size_t) { return engine::SelfishReallocBalancer(ts, n, T); },
      kTraced, tasks::all_on_one(ts), 906);
}

// ---- dynamic engine: warmup/measure through the driver --------------------

/// Everything a dynamic run observably produced, as a comparable tuple.
auto dynamic_fingerprint(const core::DynamicUserEngine& engine,
                         const core::DynamicMetrics& metrics) {
  std::vector<double> loads;
  for (graph::Node r = 0; r < 256; ++r) loads.push_back(engine.load(r));
  return std::tuple(
      metrics.overloaded_fraction.mean(), metrics.max_over_avg.mean(),
      metrics.population.mean(), metrics.migrations_per_round.mean(),
      metrics.crashes, metrics.arrivals, metrics.completions,
      engine.total_weight(), engine.population(),
      engine.current_threshold(), loads);
}

TEST(EngineDriverTest, DynamicEngineMatchesLegacyWarmupMeasureLoop) {
  core::DynamicConfig base;
  base.n = 256;
  base.arrival_rate = 120.0;
  base.completion_rate = 0.04;
  base.crash_rate = 0.01;
  base.eps = 0.2;
  base.classes = {{1.0, 0.8}, {4.0, 0.15}, {16.0, 0.05}};
  const long warmup = 80;
  const long measure = 160;
  for (std::size_t threads : kThreadCounts) {
    core::DynamicConfig cfg = base;
    cfg.threads = threads;

    // Legacy replica: warmup unrecorded, then a measured window whose
    // aggregates are computed here, after every step, in the order the
    // engine's in-step block used to compute them.
    core::DynamicUserEngine legacy(cfg);
    Rng legacy_rng(4242);
    for (long t = 0; t < warmup; ++t) legacy.step(legacy_rng);
    core::DynamicMetrics window;
    const std::uint64_t arrivals0 = legacy.arrivals();
    const std::uint64_t completions0 = legacy.completions();
    const std::uint64_t crashes0 = legacy.crashes();
    const auto n = static_cast<double>(cfg.n);
    for (long t = 0; t < measure; ++t) {
      const std::size_t moved = legacy.step(legacy_rng);
      window.overloaded_fraction.add(
          static_cast<double>(legacy.overloaded_count()) / n);
      const double avg = legacy.total_weight() / n;
      window.max_over_avg.add(avg > 0.0 ? legacy.max_load() / avg : 0.0);
      window.population.add(static_cast<double>(legacy.population()));
      window.migrations_per_round.add(static_cast<double>(moved));
    }
    window.arrivals = legacy.arrivals() - arrivals0;
    window.completions = legacy.completions() - completions0;
    window.crashes = legacy.crashes() - crashes0;
    const auto expected = dynamic_fingerprint(legacy, window);

    // Unified API: DriveOptions{warmup, measure} through engine::drive.
    core::DynamicUserEngine driven(cfg);
    Rng driven_rng(4242);
    engine::DriveOptions opt;
    opt.warmup = warmup;
    opt.measure = measure;
    const core::DynamicMetrics metrics = driven.run(opt, driven_rng);
    EXPECT_EQ(expected, dynamic_fingerprint(driven, metrics))
        << "threads=" << threads;
  }
}

TEST(EngineDriverTest, DynamicRunRejectsUnboundedDrive) {
  core::DynamicConfig cfg;
  cfg.n = 8;
  core::DynamicUserEngine engine(cfg);
  Rng rng(1);
  engine::DriveOptions opt;  // measure defaults to -1 (run to balance)
  EXPECT_THROW(engine.run(opt, rng), std::invalid_argument);
}

// ---- observers ------------------------------------------------------------

/// Checks engine::drive's hook contract as the hooks arrive: on_round(t)
/// then on_round_end(t) for t = 0, 1, ..., then on_finish exactly once,
/// after the last round. Records the view's potential at every on_round.
class HookOrderSentinel final : public engine::RoundObserver {
 public:
  void on_round(const engine::BalancerView& view, long round) override {
    EXPECT_FALSE(finished_) << "on_round after on_finish";
    EXPECT_FALSE(in_round_) << "on_round before on_round_end";
    EXPECT_EQ(round, rounds_) << "on_round out of sequence";
    in_round_ = true;
    round_start_.push_back(view.potential());
  }
  void on_round_end(const engine::BalancerView&, long round,
                    std::size_t) override {
    EXPECT_TRUE(in_round_) << "on_round_end without on_round";
    EXPECT_EQ(round, rounds_) << "on_round_end for another round";
    in_round_ = false;
    ++rounds_;
  }
  void on_finish(const engine::BalancerView& view) override {
    EXPECT_FALSE(finished_) << "on_finish twice";
    EXPECT_FALSE(in_round_) << "on_finish inside a round";
    finished_ = true;
    final_ = view.potential();
  }

  long rounds() const { return rounds_; }
  bool finished() const { return finished_; }
  const std::vector<double>& round_start() const { return round_start_; }
  double final_potential() const { return final_; }

 private:
  long rounds_ = 0;
  bool in_round_ = false;
  bool finished_ = false;
  std::vector<double> round_start_;
  double final_ = 0.0;
};

TEST(EngineDriverTest, JsonTraceSinkRecordsEveryRoundPlusFinal) {
  const graph::Node n = 16;
  const TaskSet ts = two_point_tasks(256);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  core::UserProtocolConfig cfg;
  cfg.threshold = T;
  core::GroupedUserEngine engine(ts, n, cfg);
  engine.reset(tasks::all_on_one(ts));

  engine::JsonTraceSink sink;
  Rng rng(11);
  const RunResult result =
      engine::drive(engine, rng, engine::DriveOptions{}, &sink);
  EXPECT_TRUE(result.balanced);
  // Regression: rounds_recorded() used to over-count by one after
  // on_finish, conflating the trailing final-state snapshot with a round.
  // It counts measured rounds only; the final record still exists in the
  // JSON but is a state snapshot, not a round.
  EXPECT_EQ(sink.rounds_recorded(), static_cast<std::size_t>(result.rounds));
  const std::string json = sink.json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"potential\""), std::string::npos);
  EXPECT_NE(json.find("\"final\":true"), std::string::npos);
}

TEST(EngineDriverTest, ObserverListFansOutToEveryObserver) {
  const graph::Node n = 16;
  const TaskSet ts = continuous_tasks(512, 0x0B5);
  const double T = 1.05 * ts.total_weight() / n + ts.max_weight();
  core::UserProtocolConfig cfg;
  cfg.threshold = T;
  core::UserControlledEngine engine(ts, n, cfg);
  engine.reset(tasks::all_on_one(ts));

  engine::PotentialTrace potential;
  HookOrderSentinel sentinel;
  engine::ObserverList observers;
  observers.add(&potential);
  observers.add(&sentinel);
  Rng rng(13);
  const RunResult result =
      engine::drive(engine, rng, {.max_rounds = 2}, observers.or_null());
  EXPECT_EQ(result.rounds, 2);
  // Both members saw every hook: one round-start entry per round plus the
  // final entry, in the driver's order.
  EXPECT_EQ(potential.trace().size(), 3u);
  EXPECT_EQ(sentinel.rounds(), 2);
  EXPECT_TRUE(sentinel.finished());
  EXPECT_EQ(sentinel.round_start(),
            std::vector<double>(potential.trace().begin(),
                                potential.trace().end() - 1));
}

TEST(EngineDriverTest, EmptyObserverListIsNull) {
  engine::ObserverList observers;
  EXPECT_TRUE(observers.empty());
  EXPECT_EQ(observers.or_null(), nullptr);
}

TEST(EngineDriverTest, ParanoidDriveAuditsEveryEngine) {
  // Smoke: paranoid_checks through the driver must pass for a clean run of
  // each engine family (the audits throw std::logic_error on corruption).
  const graph::Node n = 16;
  const TaskSet ts = continuous_tasks(256, 0xAB);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  core::UserProtocolConfig cfg;
  cfg.threshold = T;
  core::UserControlledEngine engine(ts, n, cfg);
  Rng rng(3);
  const RunResult result = engine::reset_and_run(
      engine, tasks::all_on_one(ts), rng, {.paranoid_checks = true});
  EXPECT_TRUE(result.balanced);
}

/// A balancer that only counts its steps, reports the count as its
/// potential, and whose audit() fails in one state: after exactly `trap`
/// steps.
class AuditTrap {
 public:
  explicit AuditTrap(long trap) : trap_(trap) {}
  std::size_t step(Rng&) {
    ++steps_;
    return 0;
  }
  [[nodiscard]] bool balanced() const { return false; }
  [[nodiscard]] std::uint32_t overloaded_count() const { return 0; }
  [[nodiscard]] double max_load() const { return 0.0; }
  [[nodiscard]] double potential() const {
    return static_cast<double>(steps_);
  }
  [[nodiscard]] double reported_threshold() const { return 1.0; }
  void audit() const {
    if (steps_ == trap_) throw std::logic_error("AuditTrap: trapped state");
  }

 private:
  long trap_;
  long steps_ = 0;
};

TEST(EngineDriverTest, ParanoidDriveAuditsWarmupRounds) {
  // Step 3 is only ever reached inside the warmup (5 warmup rounds, then 1
  // measured round audited at step 5 and the final audit at step 6), so
  // only a drive that audits warmup rounds sees the trapped state.
  Rng rng(1);
  AuditTrap audited(3);
  EXPECT_THROW(engine::drive(audited, rng,
                             {.paranoid_checks = true,
                              .warmup = 5,
                              .measure = 1}),
               std::logic_error);
  AuditTrap unaudited(3);
  const RunResult result =
      engine::drive(unaudited, rng, {.warmup = 5, .measure = 1});
  EXPECT_EQ(result.rounds, 1);
}

// ---- hook order ----------------------------------------------------------

/// Drive `balancer` with a HookOrderSentinel and a registry attached; the
/// sentinel checks the hook order, and the sentinel and the drive.rounds
/// counter must each count exactly the measured rounds.
template <class B>
RunResult drive_checking_hooks(B& balancer, DriveOptions opt,
                               HookOrderSentinel& sentinel) {
  obs::Registry registry;
  opt.registry = &registry;
  Rng rng(29);
  const RunResult result = engine::drive(balancer, rng, opt, &sentinel);
  EXPECT_TRUE(sentinel.finished());
  EXPECT_EQ(sentinel.rounds(), result.rounds);
  EXPECT_EQ(registry.snapshot().find("drive.rounds")->value,
            static_cast<std::uint64_t>(result.rounds));
  return result;
}

TEST(EngineDriverTest, HookOrderHoldsWhenRunToBalance) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B51);
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / n + ts.max_weight();
  core::UserControlledEngine engine(ts, n, cfg);
  engine.reset(tasks::all_on_one(ts));
  HookOrderSentinel sentinel;
  const RunResult result = drive_checking_hooks(engine, {}, sentinel);
  EXPECT_TRUE(result.balanced);
  EXPECT_GT(result.rounds, 2);
}

TEST(EngineDriverTest, HookOrderHoldsAtTheRoundCap) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B53);
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / n + ts.max_weight();
  core::UserControlledEngine engine(ts, n, cfg);
  engine.reset(tasks::all_on_one(ts));
  HookOrderSentinel sentinel;
  const RunResult result =
      drive_checking_hooks(engine, {.max_rounds = 2}, sentinel);
  EXPECT_EQ(result.rounds, 2);
  EXPECT_FALSE(result.balanced);
}

TEST(EngineDriverTest, HookOrderSkipsWarmupRounds) {
  // The counter's potential is its step count: the observed rounds start
  // after the 5 unobserved warm-up steps, each on_round sees the state
  // before its step, and on_finish sees all 8 steps.
  AuditTrap counter(-1);
  HookOrderSentinel sentinel;
  const RunResult result =
      drive_checking_hooks(counter, {.warmup = 5, .measure = 3}, sentinel);
  EXPECT_EQ(result.rounds, 3);
  EXPECT_EQ(sentinel.round_start(), (std::vector<double>{5.0, 6.0, 7.0}));
  EXPECT_EQ(sentinel.final_potential(), 8.0);
}

}  // namespace
