// Tests for the related-work baselines: centralized first fit, selfish
// reallocation, greedy d-choice, and the (1+β)-process.
#include <gtest/gtest.h>

#include <limits>

#include "tlb/core/thresholds.hpp"
#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using tlb::engine::ChoiceBalancer;
using tlb::engine::SelfishReallocBalancer;
using tlb::graph::Node;
using tlb::tasks::TaskSet;
using tlb::util::Rng;

/// The allocation gaps are the quality measure, so no comparison threshold.
constexpr double kNoThreshold = std::numeric_limits<double>::infinity();

double greedy_gap(const TaskSet& ts, Node n, int choices, Rng& rng) {
  ChoiceBalancer balancer(ts, n, choices, /*beta=*/0.0, kNoThreshold);
  balancer.step(rng);
  return balancer.gap();
}

double one_plus_beta_gap(const TaskSet& ts, Node n, double beta, Rng& rng) {
  ChoiceBalancer balancer(ts, n, /*choices=*/2, beta, kNoThreshold);
  balancer.step(rng);
  return balancer.gap();
}

TEST(FirstFitCentralizedTest, MeetsProperBoundInOneRound) {
  const TaskSet ts = tlb::tasks::two_point(300, 10, 20.0);
  const Node n = 25;
  tlb::engine::FirstFitBalancer balancer(ts, n);
  Rng rng(1);
  const auto result =
      tlb::engine::drive(balancer, rng, tlb::engine::DriveOptions{});
  EXPECT_EQ(result.rounds, 1);
  EXPECT_TRUE(result.balanced);
  EXPECT_LE(result.final_max_load,
            ts.total_weight() / n + ts.max_weight() + 1e-9);
  EXPECT_EQ(result.migrations, ts.size());
}

TEST(SelfishReallocTest, ConvergesBelowThreshold) {
  const Node n = 32;
  const TaskSet ts = tlb::tasks::uniform_unit(320);
  SelfishReallocBalancer balancer(
      ts, n,
      tlb::core::threshold_value(tlb::core::ThresholdKind::kAboveAverage, ts,
                                 n, 0.5));
  Rng rng(9);
  const auto r =
      tlb::engine::reset_and_run(balancer, tlb::tasks::all_on_one(ts), rng,
                                 {.max_rounds = 100000});
  EXPECT_TRUE(r.balanced);
  double total = 0.0;
  for (double x : balancer.loads()) total += x;
  EXPECT_NEAR(total, ts.total_weight(), 1e-9);
}

TEST(SelfishReallocTest, NoMovesWhenPerfectlyBalanced) {
  const Node n = 8;
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  SelfishReallocBalancer balancer(ts, n, 2.0);
  tlb::tasks::Placement p(8);
  for (std::size_t i = 0; i < 8; ++i) p[i] = static_cast<Node>(i);
  balancer.reset(p);
  Rng rng(10);
  // With equal loads, 1 - x_j/x_i = 0: no task should ever move.
  EXPECT_EQ(balancer.step(rng), 0u);
}

TEST(SelfishReallocTest, RejectsBadConfig) {
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  // A NaN stop threshold fails every comparison, so the run would never
  // count as balanced and would spin to the round cap.
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    EXPECT_THROW(SelfishReallocBalancer(ts, 4, bad), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(SelfishReallocBalancer(ts, 1, 2.0), std::invalid_argument);
  // +inf means "no comparison threshold" and stays accepted.
  EXPECT_NO_THROW(SelfishReallocBalancer(ts, 4, kNoThreshold));
}

TEST(GreedyChoiceTest, TwoChoicesBeatOne) {
  // The power of two choices: the gap shrinks by an order of magnitude.
  const Node n = 50;
  const TaskSet ts = tlb::tasks::uniform_unit(5000);
  double gap1 = 0.0, gap2 = 0.0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(1000 + t);
    gap1 += greedy_gap(ts, n, 1, rng);
    gap2 += greedy_gap(ts, n, 2, rng);
  }
  EXPECT_LT(gap2, gap1 * 0.6);
}

TEST(GreedyChoiceTest, LoadsSumToTotal) {
  const TaskSet ts = tlb::tasks::two_point(100, 5, 10.0);
  Rng rng(11);
  ChoiceBalancer balancer(ts, 10, 2, 0.0, kNoThreshold);
  EXPECT_EQ(balancer.step(rng), ts.size());
  double total = 0.0;
  for (double x : balancer.loads()) total += x;
  EXPECT_NEAR(total, ts.total_weight(), 1e-9);
  EXPECT_NEAR(balancer.gap(), balancer.max_load() - ts.total_weight() / 10,
              1e-12);
  EXPECT_NO_THROW(balancer.audit());
  // A finished one-shot allocation is done; stepping again is a no-op.
  EXPECT_TRUE(balancer.done());
  EXPECT_EQ(balancer.step(rng), 0u);
}

TEST(GreedyChoiceTest, RejectsBadArgs) {
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  Rng rng(1);
  EXPECT_THROW(greedy_gap(ts, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(greedy_gap(ts, 4, 0, rng), std::invalid_argument);
}

TEST(OnePlusBetaTest, InterpolatesBetweenOneAndTwoChoices) {
  const Node n = 50;
  const TaskSet ts = tlb::tasks::uniform_unit(5000);
  double gap_random = 0.0, gap_half = 0.0, gap_two = 0.0;
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    Rng r1(2000 + t), r2(2000 + t), r3(2000 + t);
    gap_random += one_plus_beta_gap(ts, n, 1.0, r1);
    gap_half += one_plus_beta_gap(ts, n, 0.5, r2);
    gap_two += one_plus_beta_gap(ts, n, 0.0, r3);
  }
  EXPECT_LT(gap_two, gap_half);
  EXPECT_LT(gap_half, gap_random);
}

TEST(OnePlusBetaTest, RejectsBadBeta) {
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  Rng rng(1);
  EXPECT_THROW(one_plus_beta_gap(ts, 4, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(one_plus_beta_gap(ts, 4, 1.1, rng), std::invalid_argument);
}

TEST(OnePlusBetaTest, WeightedGapStaysBoundedInM) {
  // Peres et al.: the gap is independent of the number of balls. Compare
  // m and 4m — the gap should grow far slower than the 4x load growth.
  const Node n = 64;
  Rng rng_small(5), rng_big(5);
  const TaskSet small = tlb::tasks::shifted_exponential(20000, 1.0, rng_small);
  const TaskSet big = tlb::tasks::shifted_exponential(80000, 1.0, rng_big);
  double gap_small = 0.0, gap_big = 0.0;
  for (int t = 0; t < 10; ++t) {
    Rng r1(3000 + t), r2(3000 + t);
    gap_small += one_plus_beta_gap(small, n, 0.3, r1) / 10.0;
    gap_big += one_plus_beta_gap(big, n, 0.3, r2) / 10.0;
  }
  EXPECT_LT(gap_big, gap_small * 2.5);
}

}  // namespace
