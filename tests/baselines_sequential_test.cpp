// Tests for the sequential threshold allocation baseline (Berenbrink et al.
// [5] style): O(m) total choices at threshold ceil(m/n)+1 for unit balls,
// bounded max load, and graceful failure on infeasible thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using tlb::engine::SequentialThresholdBalancer;
using tlb::engine::suggested_threshold;
using tlb::graph::Node;
using tlb::tasks::TaskSet;
using tlb::util::Rng;

/// The whole allocation (the balancer's one round).
SequentialThresholdBalancer sequential_threshold(const TaskSet& ts, Node n,
                                                 double threshold, Rng& rng) {
  SequentialThresholdBalancer balancer(ts, n, threshold);
  balancer.step(rng);
  return balancer;
}

TEST(SequentialThresholdTest, UnitBallsLinearChoices) {
  // [5]: with threshold ceil(m/n) + 1, total choices are O(m) w.h.p.
  const Node n = 100;
  const std::size_t m = 5000;
  const TaskSet ts = tlb::tasks::uniform_unit(m);
  const double threshold = std::ceil(double(m) / n) + 1.0;  // 51
  Rng rng(1);
  const auto result = sequential_threshold(ts, n, threshold, rng);
  ASSERT_TRUE(result.completed());
  EXPECT_EQ(result.placed(), m);
  EXPECT_LE(result.max_load(), threshold);
  // Mean choices per ball stays a small constant (empirically ~1.3 here;
  // allow a wide band to keep the test robust).
  EXPECT_LT(static_cast<double>(result.choices()), 3.0 * m);
}

TEST(SequentialThresholdTest, TighterThresholdCostsMoreChoices) {
  const Node n = 64;
  const std::size_t m = 6400;
  const TaskSet ts = tlb::tasks::uniform_unit(m);
  Rng rng1(2), rng2(2);
  const auto loose = sequential_threshold(ts, n, double(m) / n + 10.0, rng1);
  const auto tight = sequential_threshold(ts, n, double(m) / n + 1.0, rng2);
  ASSERT_TRUE(loose.completed());
  ASSERT_TRUE(tight.completed());
  EXPECT_GT(tight.choices(), loose.choices());
}

TEST(SequentialThresholdTest, ExactCapacityStillCompletes) {
  // threshold == m/n exactly: the last balls must hunt for the few
  // remaining slots (coupon collector), but allocation is feasible.
  const Node n = 32;
  const std::size_t m = 320;
  const TaskSet ts = tlb::tasks::uniform_unit(m);
  Rng rng(3);
  const auto result = sequential_threshold(ts, n, double(m) / n, rng);
  ASSERT_TRUE(result.completed());
  for (double load : result.loads()) EXPECT_DOUBLE_EQ(load, 10.0);
}

TEST(SequentialThresholdTest, InfeasibleThresholdReportsFailure) {
  const TaskSet ts = tlb::tasks::uniform_unit(100);
  Rng rng(4);
  // 4 bins of capacity 10 can hold at most 40 of the 100 balls; the 41st
  // ball spends its kMaxRetriesPerBall probes and the allocation stops.
  const auto result = sequential_threshold(ts, 4, 10.0, rng);
  EXPECT_FALSE(result.completed());
  EXPECT_LT(result.placed(), 100u);
}

struct WeightedCase {
  std::size_t m;
  Node n;
};

class SequentialThresholdWeightedTest
    : public ::testing::TestWithParam<WeightedCase> {};

TEST_P(SequentialThresholdWeightedTest, SuggestedThresholdAlwaysCompletes) {
  const auto [m, n] = GetParam();
  Rng wrng(m + n);
  const TaskSet ts = tlb::tasks::bounded_pareto(m, 2.5, 20.0, wrng);
  const double threshold = suggested_threshold(ts, n);
  Rng rng(5);
  const auto result = sequential_threshold(ts, n, threshold, rng);
  ASSERT_TRUE(result.completed()) << "m=" << m << " n=" << n;
  EXPECT_LE(result.max_load(), threshold + 1e-9);
  double total = 0.0;
  for (double load : result.loads()) total += load;
  EXPECT_NEAR(total, ts.total_weight(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SequentialThresholdWeightedTest,
    ::testing::Values(WeightedCase{100, 10}, WeightedCase{1000, 50},
                      WeightedCase{5000, 100}, WeightedCase{10000, 1000}),
    [](const auto& param_info) {
      return std::string("m") + std::to_string(param_info.param.m) + "_n" +
             std::to_string(param_info.param.n);
    });

TEST(SequentialThresholdTest, RejectsBadArgs) {
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  Rng rng(6);
  EXPECT_THROW(sequential_threshold(ts, 0, 5.0, rng), std::invalid_argument);
  EXPECT_THROW(sequential_threshold(ts, 4, 0.0, rng), std::invalid_argument);
}

}  // namespace
