// Tests for Algorithm 6.1 (user-controlled migration): the departure rule
// (rounding and clamp), termination, weight conservation, exact-vs-grouped
// engine equivalence, the Lemma 1 acceptor bound along trajectories, and
// both threshold regimes.
#include "tlb/core/user_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tlb/core/departure.hpp"
#include "tlb/core/potential.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::tasks::all_on_one;
using tlb::tasks::TaskSet;
using tlb::util::Rng;
using tlb::engine::reset_and_run;

UserProtocolConfig make_config(double threshold, double alpha = 1.0) {
  UserProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.alpha = alpha;
  return cfg;
}

const tlb::engine::DriveOptions kDrive{.max_rounds = 500000};

// p_r = min(1, α·⌈φ_r/w_max⌉/b_r), Observation 9's ψ_r = ⌈φ_r/w_max⌉
// departures scaled by α over the b_r tasks. Every engine takes its coins
// from this one function, so it is checked here against hand-computed
// values rather than against another engine.
TEST(LeaveProbabilityTest, RoundsPhiOverWmaxUp) {
  // φ at a multiple of w_max: exactly that many departures.
  EXPECT_EQ(leave_probability(1.0, 12.0, 6.0, 10), 2.0 / 10.0);
  // Just above a multiple: one more.
  EXPECT_EQ(leave_probability(1.0, 12.0 + 1e-9, 6.0, 10), 3.0 / 10.0);
  EXPECT_EQ(leave_probability(1.0, 12.0, 5.0, 10), 3.0 / 10.0);
  // Below w_max: still one departure.
  EXPECT_EQ(leave_probability(1.0, 1.0, 6.0, 10), 1.0 / 10.0);
  // α scales the count.
  EXPECT_EQ(leave_probability(0.5, 12.0, 6.0, 10), 0.5 * 2.0 / 10.0);
}

TEST(LeaveProbabilityTest, ClampsAtOne) {
  EXPECT_EQ(leave_probability(1.0, 60.0, 6.0, 10), 1.0);  // exactly 1
  EXPECT_EQ(leave_probability(1.0, 60.0, 6.0, 5), 1.0);   // 10/5, clamped
  EXPECT_EQ(leave_probability(4.0, 6.0, 6.0, 2), 1.0);    // α·1/2 = 2
}

TEST(LeaveProbabilityTest, ZeroWithoutTasksOrPotential) {
  EXPECT_EQ(leave_probability(1.0, 12.0, 6.0, 0), 0.0);   // b = 0
  EXPECT_EQ(leave_probability(1.0, 0.0, 6.0, 10), 0.0);   // φ = 0
  EXPECT_EQ(leave_probability(1.0, -1.0, 6.0, 10), 0.0);  // φ < 0
}

TEST(UserProtocolTest, TerminatesFromSinglePile) {
  const Node n = 64;
  const TaskSet ts = tlb::tasks::uniform_unit(640);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserControlledEngine engine(ts, n, make_config(T));
  Rng rng(1);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  EXPECT_TRUE(r.balanced);
  EXPECT_LE(engine.state().max_load(), T);
  EXPECT_GT(r.rounds, 0);
}

TEST(UserProtocolTest, WeightConservedAndNoTaskLost) {
  const Node n = 32;
  const TaskSet ts = tlb::tasks::two_point(200, 8, 12.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserControlledEngine engine(ts, n, make_config(T));
  Rng rng(2);
  const RunResult r =
      reset_and_run(engine, all_on_one(ts), rng,
                    {.max_rounds = 500000, .paranoid_checks = true});
  EXPECT_TRUE(r.balanced);
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-9);
  EXPECT_NO_THROW(engine.state().check_invariants());
}

TEST(UserProtocolTest, PotentialTraceEndsAtZero) {
  const Node n = 32;
  const TaskSet ts = tlb::tasks::single_heavy(200, 16.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserProtocolConfig cfg = make_config(T);
  UserControlledEngine engine(ts, n, cfg);
  engine.reset(all_on_one(ts));
  Rng rng(3);
  tlb::engine::PotentialTrace trace;
  const RunResult r = tlb::engine::drive(engine, rng, kDrive, &trace);
  ASSERT_TRUE(r.balanced);
  ASSERT_FALSE(trace.trace().empty());
  EXPECT_GT(trace.trace().front(), 0.0);
  EXPECT_DOUBLE_EQ(trace.trace().back(), 0.0);
  for (double phi : trace.trace()) EXPECT_GE(phi, 0.0);
}

TEST(UserProtocolTest, TightThresholdTerminates) {
  const Node n = 16;
  const TaskSet ts = tlb::tasks::uniform_unit(64);
  const double T = threshold_value(ThresholdKind::kTightUser, ts, n);
  // Tight thresholds need small alpha in theory; with a small instance
  // alpha = 0.5 converges fast while exercising the same code path.
  UserControlledEngine engine(ts, n, make_config(T, 0.5));
  Rng rng(4);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  EXPECT_TRUE(r.balanced);
  EXPECT_LE(engine.state().max_load(), T);
}

TEST(UserProtocolTest, ExcludeSelfVariantTerminates) {
  const Node n = 32;
  const TaskSet ts = tlb::tasks::uniform_unit(320);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserProtocolConfig cfg = make_config(T);
  cfg.exclude_self = true;
  UserControlledEngine engine(ts, n, cfg);
  Rng rng(5);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  EXPECT_TRUE(r.balanced);
}

TEST(UserProtocolTest, Lemma1HoldsAlongTrajectory) {
  // Lemma 1 is a statement about *every* reachable state: at the end of each
  // round at least ε/(1+ε) of the resources can accept any w_max task.
  const Node n = 40;
  const double eps = 0.25;
  const TaskSet ts = tlb::tasks::two_point(150, 5, 10.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, eps);
  UserControlledEngine engine(ts, n, make_config(T));
  Rng rng(6);
  engine.reset(all_on_one(ts));
  for (int round = 0; round < 2000 && !engine.balanced(); ++round) {
    engine.step(rng);
    EXPECT_GE(acceptor_fraction(engine.state(), ts.max_weight()),
              eps / (1.0 + eps) - 1e-12)
        << "round " << round;
  }
  EXPECT_TRUE(engine.balanced());
}

TEST(GroupedEngineTest, MatchesClassCount) {
  const TaskSet ts = tlb::tasks::two_point(10, 3, 50.0);
  GroupedUserEngine engine(ts, 8, make_config(20.0));
  EXPECT_EQ(engine.num_classes(), 2u);
}

TEST(GroupedEngineTest, RejectsTooManyClasses) {
  Rng rng(7);
  const TaskSet ts = tlb::tasks::uniform_real(200, 50.0, rng);
  EXPECT_THROW(GroupedUserEngine(ts, 8, make_config(20.0)),
               std::invalid_argument);
}

TEST(GroupedEngineTest, TerminatesAndConservesWeight) {
  const Node n = 64;
  const TaskSet ts = tlb::tasks::two_point(500, 10, 25.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  GroupedUserEngine engine(ts, n, make_config(T));
  Rng rng(8);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  EXPECT_TRUE(r.balanced);
  double total = 0.0;
  for (Node v = 0; v < n; ++v) total += engine.load(v);
  EXPECT_NEAR(total, ts.total_weight(), 1e-9);
  EXPECT_DOUBLE_EQ(engine.potential(), 0.0);
}

TEST(GroupedEngineTest, StatisticallyMatchesExactEngine) {
  // The engines differ only in stack-order convention; balancing-time
  // distributions must agree. Compare means over enough trials that a real
  // discrepancy (>10%) would trip the band.
  const Node n = 50;
  const TaskSet ts = tlb::tasks::two_point(300, 4, 20.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  const std::size_t kTrials = 150;

  const auto exact = tlb::sim::run_trials(
      kTrials, 0xAAAA,
      [&](Rng& rng) {
        UserControlledEngine engine(ts, n, make_config(T));
        return reset_and_run(engine, all_on_one(ts), rng, kDrive);
      });
  const auto grouped = tlb::sim::run_trials(
      kTrials, 0xBBBB,
      [&](Rng& rng) {
        GroupedUserEngine engine(ts, n, make_config(T));
        return reset_and_run(engine, all_on_one(ts), rng, kDrive);
      });

  const double mu_exact = exact.rounds.mean();
  const double mu_grouped = grouped.rounds.mean();
  const double joint_se = std::sqrt(
      exact.rounds.stderror() * exact.rounds.stderror() +
      grouped.rounds.stderror() * grouped.rounds.stderror());
  EXPECT_NEAR(mu_exact, mu_grouped, std::max(5.0 * joint_se, 0.12 * mu_exact))
      << "exact=" << mu_exact << " grouped=" << mu_grouped;
}

TEST(UserProtocolTest, SmallAlphaSlowsConvergence) {
  // α scales the per-round departure rate, so smaller α should not balance
  // faster in expectation (Section 7's observation motivating α = 1).
  const Node n = 40;
  const TaskSet ts = tlb::tasks::uniform_unit(400);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  const std::size_t kTrials = 60;
  auto mean_rounds = [&](double alpha) {
    return tlb::sim::run_trials(kTrials, 0xCC,
                                [&](Rng& rng) {
                                  GroupedUserEngine engine(
                                      ts, n, make_config(T, alpha));
                                  return reset_and_run(
                                      engine, all_on_one(ts), rng, kDrive);
                                })
        .rounds.mean();
  };
  EXPECT_LT(mean_rounds(1.0), mean_rounds(0.1));
}

TEST(UserProtocolTest, RejectsBadConfig) {
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  EXPECT_THROW(UserControlledEngine(ts, 4, make_config(0.0)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(ts, 4, make_config(5.0, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(ts, 1, make_config(5.0)),
               std::invalid_argument);
  // Non-finite threshold and alpha, on both engines: a NaN alpha makes
  // every leave probability NaN, so nothing ever moves.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    EXPECT_THROW(UserControlledEngine(ts, 4, make_config(x)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(UserControlledEngine(ts, 4, make_config(5.0, x)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(GroupedUserEngine(ts, 4, make_config(x)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(GroupedUserEngine(ts, 4, make_config(5.0, x)),
                 std::invalid_argument)
        << x;
  }
}

TEST(UserProtocolTest, DeterministicGivenSeed) {
  const Node n = 30;
  const TaskSet ts = tlb::tasks::two_point(100, 3, 8.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserControlledEngine a(ts, n, make_config(T));
  UserControlledEngine b(ts, n, make_config(T));
  Rng ra(55), rb(55);
  const RunResult r1 = reset_and_run(a, all_on_one(ts), ra, kDrive);
  const RunResult r2 = reset_and_run(b, all_on_one(ts), rb, kDrive);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.migrations, r2.migrations);
}

}  // namespace
