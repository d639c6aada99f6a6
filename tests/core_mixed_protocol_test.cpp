// Tests for the mixed resource/user protocol (the paper's proposed future
// work): the β endpoints recover the pure protocols, intermediate blends
// terminate, and the height-based eviction matches the acceptance-based one.
#include "tlb/core/mixed_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Graph;
using tlb::graph::Node;
using tlb::tasks::all_on_one;
using tlb::tasks::TaskSet;
using tlb::util::Rng;
using tlb::engine::reset_and_run;

MixedProtocolConfig make_config(double threshold, double beta,
                                double alpha = 1.0) {
  MixedProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.resource_probability = beta;
  cfg.alpha = alpha;
  cfg.walk = tlb::randomwalk::WalkKind::kLazy;
  return cfg;
}

const tlb::engine::DriveOptions kDrive{.max_rounds = 500000};

TEST(EvictAboveTest, MatchesAcceptanceBookkeeping) {
  // The mixed engine evicts by heights; on a stack built with acceptance
  // bookkeeping both eviction rules must select the same suffix.
  const TaskSet ts({5.0, 7.0, 2.0, 1.0});
  const double T = 10.0;
  ResourceStack with_acceptance, by_height;
  for (tlb::tasks::TaskId i = 0; i < 4; ++i) {
    with_acceptance.push_accepting(i, ts, T);
    by_height.push(i, ts);
  }
  std::vector<tlb::tasks::TaskId> out_a, out_h;
  with_acceptance.evict_unaccepted(ts, out_a);
  by_height.evict_above(ts, T, out_h);
  EXPECT_EQ(out_a, out_h);
  EXPECT_DOUBLE_EQ(with_acceptance.load(), by_height.load());
}

TEST(EvictAboveTest, NoopWhenBelowThreshold) {
  const TaskSet ts({3.0, 3.0});
  ResourceStack s;
  s.push(0, ts);
  s.push(1, ts);
  std::vector<tlb::tasks::TaskId> out;
  s.evict_above(ts, 6.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(s.count(), 2u);
}

TEST(MixedProtocolTest, TerminatesAcrossBlends) {
  const Graph g = tlb::graph::grid2d(6, 6, /*torus=*/true);
  const TaskSet ts = tlb::tasks::two_point(200, 6, 8.0);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  for (double beta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    MixedProtocolEngine engine(g, ts, make_config(T, beta));
    Rng rng(static_cast<std::uint64_t>(beta * 100) + 1);
    const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
    EXPECT_TRUE(r.balanced) << "beta=" << beta;
    EXPECT_LE(engine.state().max_load(), T) << "beta=" << beta;
    EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-9);
  }
}

TEST(MixedProtocolTest, BetaOneMatchesResourceProtocolStatistically) {
  const Graph g = tlb::graph::grid2d(5, 5, /*torus=*/true);
  const TaskSet ts = tlb::tasks::uniform_unit(150);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  const std::size_t kTrials = 120;

  const auto mixed = tlb::sim::run_trials(kTrials, 0x311, [&](Rng& rng) {
    MixedProtocolEngine engine(g, ts, make_config(T, 1.0));
    return reset_and_run(engine, all_on_one(ts), rng, kDrive);
  });
  const auto pure = tlb::sim::run_trials(kTrials, 0x313, [&](Rng& rng) {
    ResourceProtocolConfig cfg;
    cfg.threshold = T;
    cfg.walk = tlb::randomwalk::WalkKind::kLazy;
    ResourceControlledEngine engine(g, ts, cfg);
    return reset_and_run(engine, all_on_one(ts), rng, kDrive);
  });

  const double se =
      std::sqrt(mixed.rounds.stderror() * mixed.rounds.stderror() +
                pure.rounds.stderror() * pure.rounds.stderror());
  EXPECT_NEAR(mixed.rounds.mean(), pure.rounds.mean(),
              std::max(5.0 * se, 0.15 * pure.rounds.mean()));
}

TEST(MixedProtocolTest, MoreResourceModeIsFasterButBurstier) {
  // Higher β drains overload in fewer rounds but with larger single-round
  // migration bursts. Compare β = 0.1 vs β = 1.0.
  const Graph g = tlb::graph::grid2d(6, 6, /*torus=*/true);
  const TaskSet ts = tlb::tasks::uniform_unit(8 * 36);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  auto stats_for = [&](double beta, std::uint64_t seed) {
    return tlb::sim::run_trials(30, seed, [&](Rng& rng) {
      MixedProtocolEngine engine(g, ts, make_config(T, beta));
      return reset_and_run(engine, all_on_one(ts), rng, kDrive);
    });
  };
  const auto slow_blend = stats_for(0.1, 0xb01);
  const auto fast_blend = stats_for(1.0, 0xb02);
  EXPECT_LT(fast_blend.rounds.mean(), slow_blend.rounds.mean());
}

TEST(MixedProtocolTest, ResourceRoundsCounterTracksBeta) {
  const Graph g = tlb::graph::complete(16);
  const TaskSet ts = tlb::tasks::uniform_unit(160);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, 16, 0.3);
  MixedProtocolEngine all_resource(g, ts, make_config(T, 1.0));
  MixedProtocolEngine all_user(g, ts, make_config(T, 0.0));
  Rng r1(6), r2(6);
  reset_and_run(all_resource, all_on_one(ts), r1, kDrive);
  reset_and_run(all_user, all_on_one(ts), r2, kDrive);
  EXPECT_GT(all_resource.resource_rounds(), 0);
  EXPECT_EQ(all_user.resource_rounds(), 0);
}

TEST(MixedProtocolTest, NonUniformThresholdsRespected) {
  const Graph g = tlb::graph::complete(10);
  const TaskSet ts = tlb::tasks::uniform_unit(100);
  std::vector<double> thresholds(10, 11.0);
  thresholds[0] = 22.0;  // one big node
  MixedProtocolConfig cfg;
  cfg.threshold = thresholds;
  cfg.resource_probability = 0.5;
  MixedProtocolEngine engine(g, ts, cfg);
  Rng rng(7);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  ASSERT_TRUE(r.balanced);
  for (Node v = 0; v < 10; ++v) {
    EXPECT_LE(engine.state().load(v), thresholds[v] + 1e-9);
  }
}

TEST(MixedProtocolTest, RejectsBadConfig) {
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(0.0, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(5.0, -0.1)),
               std::invalid_argument);
  EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(5.0, 1.1)),
               std::invalid_argument);
  EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(5.0, 0.5, 0.0)),
               std::invalid_argument);
  // Non-finite threshold, per-resource thresholds and alpha.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(x, 0.5)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(5.0, 0.5, x)),
                 std::invalid_argument)
        << x;
    MixedProtocolConfig per = make_config(5.0, 0.5);
    per.threshold = std::vector<double>{5.0, x, 5.0, 5.0};
    EXPECT_THROW(MixedProtocolEngine(g, ts, per), std::invalid_argument) << x;
  }
}

}  // namespace
