// Tests for the Adler et al. [4]-style parallel threshold allocation:
// round/threshold trade-off, completion, and communication accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using tlb::engine::ParallelThresholdBalancer;
using tlb::graph::Node;
using tlb::tasks::TaskSet;
using tlb::util::Rng;

/// A parallel threshold allocation driven for at most `max_rounds` rounds.
struct ParallelRun {
  ParallelThresholdBalancer balancer;
  long rounds = 0;
};

ParallelRun parallel_threshold(const TaskSet& ts, Node n, double threshold,
                               long max_rounds, Rng& rng) {
  ParallelRun run{ParallelThresholdBalancer(ts, n, threshold)};
  tlb::engine::DriveOptions opt;
  opt.max_rounds = max_rounds;
  run.rounds = tlb::engine::drive(run.balancer, rng, opt).rounds;
  return run;
}

TEST(ParallelThresholdTest, CompletesWithGenerousThreshold) {
  const Node n = 64;
  const TaskSet ts = tlb::tasks::uniform_unit(640);
  Rng rng(1);
  const auto result = parallel_threshold(ts, n, 20.0, 100, rng);
  ASSERT_TRUE(result.balancer.done());
  EXPECT_EQ(result.balancer.placed(), 640u);
  EXPECT_LE(result.balancer.max_load(), 20.0);
  double total = 0.0;
  for (double x : result.balancer.loads()) total += x;
  EXPECT_NEAR(total, 640.0, 1e-9);
}

TEST(ParallelThresholdTest, OneRoundEqualsRandomThrowWithRejections) {
  // With threshold 1 and m = n unit balls, one round places every ball that
  // landed alone (the occupancy of a single uniform throw).
  const Node n = 2000;
  const TaskSet ts = tlb::tasks::uniform_unit(n);
  Rng rng(2);
  const auto result = parallel_threshold(ts, n, 1.0, 1, rng);
  // Collisions are overwhelming at m = n.
  EXPECT_FALSE(result.balancer.done());
  // Expected occupied fraction after one throw: 1 - (1 - 1/n)^n -> 1 - 1/e,
  // and placed = occupied bins (each keeps exactly one ball at T = 1).
  const double expected = n * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(static_cast<double>(result.balancer.placed()), expected,
              4.0 * std::sqrt(n));
}

TEST(ParallelThresholdTest, TradeoffMoreRoundsLowerFeasibleThreshold) {
  // The [4] trade-off: to finish in r rounds the threshold must grow as r
  // shrinks. Find the smallest integer threshold that completes within r
  // rounds (majority of trials) for r = 1 vs r = 8.
  const Node n = 256;
  const TaskSet ts = tlb::tasks::uniform_unit(n);  // m = n unit balls
  auto min_threshold = [&](long rounds) {
    for (int threshold = 1; threshold <= 64; ++threshold) {
      int successes = 0;
      for (int trial = 0; trial < 9; ++trial) {
        Rng rng(1000 + trial);
        if (parallel_threshold(ts, n, threshold, rounds, rng)
                .balancer.done()) {
          ++successes;
        }
      }
      if (successes >= 5) return threshold;
    }
    return 65;
  };
  EXPECT_GT(min_threshold(1), min_threshold(8));
}

TEST(ParallelThresholdTest, MessagesCountProposals) {
  const Node n = 16;
  const TaskSet ts = tlb::tasks::uniform_unit(16);
  Rng rng(3);
  const auto result = parallel_threshold(ts, n, 100.0, 10, rng);
  ASSERT_TRUE(result.balancer.done());
  EXPECT_EQ(result.rounds, 1);                 // everything fits first try
  EXPECT_EQ(result.balancer.messages(), 16u);  // one proposal per ball
}

TEST(ParallelThresholdTest, WeightedBallsRespectThreshold) {
  Rng wrng(4);
  const TaskSet ts = tlb::tasks::bounded_pareto(500, 2.5, 16.0, wrng);
  const Node n = 50;
  const double T = ts.total_weight() / n + ts.max_weight();
  Rng rng(5);
  const auto result = parallel_threshold(ts, n, T, 10000, rng);
  ASSERT_TRUE(result.balancer.done());
  EXPECT_LE(result.balancer.max_load(), T + 1e-9);
}

TEST(ParallelThresholdTest, RejectsBadArgs) {
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  Rng rng(6);
  EXPECT_THROW(parallel_threshold(ts, 0, 5.0, 10, rng), std::invalid_argument);
  EXPECT_THROW(parallel_threshold(ts, 4, 0.0, 10, rng), std::invalid_argument);
}

}  // namespace
