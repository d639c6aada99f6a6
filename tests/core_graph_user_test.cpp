// Tests for the graph user-protocol extension (user-controlled migration on
// arbitrary graphs, the Hoefer–Sauerwald setting): the exact engine's graph
// constructor at blend β = 0, which is what the "graphuser" scenario
// protocol runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
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

/// The graph-user protocol: no resource-controlled rounds (β = 0, the
/// default).
UserProtocolConfig make_config(double threshold, double alpha = 1.0) {
  UserProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.alpha = alpha;
  return cfg;
}

const tlb::engine::DriveOptions kDrive{.max_rounds = 500000};

TEST(GraphUserTest, TerminatesOnTorus) {
  const Graph g = tlb::graph::grid2d(6, 6, /*torus=*/true);
  const TaskSet ts = tlb::tasks::uniform_unit(8 * 36);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  UserProtocolConfig cfg = make_config(T);
  cfg.walk = tlb::randomwalk::WalkKind::kLazy;
  UserControlledEngine engine(g, ts, cfg);
  Rng rng(1);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  EXPECT_TRUE(r.balanced);
  EXPECT_LE(engine.state().max_load(), T);
}

TEST(GraphUserTest, WeightConservation) {
  Rng graph_rng(2);
  const Graph g = tlb::graph::random_regular(32, 4, graph_rng);
  const TaskSet ts = tlb::tasks::two_point(200, 6, 8.0);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  UserControlledEngine engine(g, ts, make_config(T));
  Rng rng(3);
  const RunResult r =
      reset_and_run(engine, all_on_one(ts), rng,
                    {.max_rounds = 500000, .paranoid_checks = true});
  EXPECT_TRUE(r.balanced);
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-9);
  EXPECT_NO_THROW(engine.state().check_invariants());
}

TEST(GraphUserTest, CompleteGraphMatchesUniformEngineStatistically) {
  // On K_n the max-degree walk step is uniform over the other n-1 nodes —
  // the exact engine with exclude_self runs the same process.
  const Node n = 40;
  const TaskSet ts = tlb::tasks::two_point(250, 4, 12.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.25);
  const Graph g = tlb::graph::complete(n);
  const std::size_t kTrials = 120;

  const auto via_graph = tlb::sim::run_trials(
      kTrials, 0x6a1, [&](Rng& rng) {
        UserControlledEngine engine(g, ts, make_config(T));
        return reset_and_run(engine, all_on_one(ts), rng, kDrive);
      });
  const auto via_uniform = tlb::sim::run_trials(
      kTrials, 0x6a2, [&](Rng& rng) {
        UserProtocolConfig cfg;
        cfg.threshold = T;
        cfg.exclude_self = true;
        UserControlledEngine engine(ts, n, cfg);
        return reset_and_run(engine, all_on_one(ts), rng, kDrive);
      });

  const double se = std::sqrt(
      via_graph.rounds.stderror() * via_graph.rounds.stderror() +
      via_uniform.rounds.stderror() * via_uniform.rounds.stderror());
  EXPECT_NEAR(via_graph.rounds.mean(), via_uniform.rounds.mean(),
              std::max(5.0 * se, 0.12 * via_graph.rounds.mean()));
}

TEST(GraphUserTest, BetterConnectivityBalancesFaster) {
  const Node n = 64;
  const TaskSet ts = tlb::tasks::uniform_unit(6 * n);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.3);
  auto mean_rounds = [&](const Graph& g, tlb::randomwalk::WalkKind walk,
                         std::uint64_t seed) {
    UserProtocolConfig cfg = make_config(T);
    cfg.walk = walk;
    return tlb::sim::run_trials(25, seed, [&](Rng& rng) {
             UserControlledEngine engine(g, ts, cfg);
             return reset_and_run(engine, all_on_one(ts), rng, kDrive);
           })
        .rounds.mean();
  };
  const Graph complete = tlb::graph::complete(n);
  const Graph ring = tlb::graph::cycle(n);
  EXPECT_LT(mean_rounds(complete, tlb::randomwalk::WalkKind::kMaxDegree, 0x71),
            mean_rounds(ring, tlb::randomwalk::WalkKind::kLazy, 0x72));
}

TEST(GraphUserTest, NonUniformThresholdsRespected) {
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::uniform_unit(96);
  // First row gets double the capacity of everyone else.
  std::vector<double> thresholds(16, 7.0);
  for (int i = 0; i < 4; ++i) thresholds[i] = 14.0;
  UserProtocolConfig cfg = make_config(1.0);
  cfg.threshold = thresholds;
  cfg.walk = tlb::randomwalk::WalkKind::kLazy;
  UserControlledEngine engine(g, ts, cfg);
  Rng rng(4);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
  ASSERT_TRUE(r.balanced);
  for (Node v = 0; v < 16; ++v) {
    EXPECT_LE(engine.state().load(v), thresholds[v] + 1e-9);
  }
}

TEST(GraphUserTest, RejectsBadConfig) {
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(0.0)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, 0.0)),
               std::invalid_argument);
  UserProtocolConfig bad = make_config(1.0);
  bad.threshold = std::vector<double>{1.0, 1.0};
  EXPECT_THROW(UserControlledEngine(g, ts, bad), std::invalid_argument);
  // Non-finite threshold, per-resource thresholds and alpha.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    EXPECT_THROW(UserControlledEngine(g, ts, make_config(x)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, x)),
                 std::invalid_argument)
        << x;
    UserProtocolConfig per = make_config(5.0);
    per.threshold = std::vector<double>{5.0, 5.0, x, 5.0};
    EXPECT_THROW(UserControlledEngine(g, ts, per), std::invalid_argument) << x;
  }
}

TEST(GraphUserTest, DeterministicGivenSeed) {
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::uniform_unit(64);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, 16, 0.3);
  UserProtocolConfig cfg = make_config(T);
  cfg.walk = tlb::randomwalk::WalkKind::kLazy;
  UserControlledEngine a(g, ts, cfg), b(g, ts, cfg);
  Rng ra(5), rb(5);
  const RunResult r1 = reset_and_run(a, all_on_one(ts), ra, kDrive);
  const RunResult r2 = reset_and_run(b, all_on_one(ts), rb, kDrive);
  EXPECT_EQ(r1.rounds, r2.rounds);
  EXPECT_EQ(r1.migrations, r2.migrations);
}

}  // namespace
