// Tests for Algorithm 5.1 (resource-controlled migration): termination,
// weight conservation, Observation 4 (non-increasing potential), the
// active == overloaded invariant, and behaviour across graph families and
// threshold regimes.
#include "tlb/core/resource_protocol.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "tlb/core/potential.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Graph;
using tlb::tasks::all_on_one;
using tlb::tasks::TaskSet;
using tlb::util::Rng;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceProtocolConfig make_config(double threshold,
                                   tlb::randomwalk::WalkKind walk =
                                       tlb::randomwalk::WalkKind::kMaxDegree) {
  ResourceProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.walk = walk;
  cfg.options.max_rounds = 200000;
  return cfg;
}

TEST(ResourceProtocolTest, TerminatesOnCompleteGraph) {
  const Graph g = tlb::graph::complete(32);
  const TaskSet ts = tlb::tasks::uniform_unit(320);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.5);
  ResourceControlledEngine engine(g, ts, make_config(T));
  Rng rng(1);
  const RunResult r = engine.run(all_on_one(ts), rng);
  EXPECT_TRUE(r.balanced);
  EXPECT_GT(r.rounds, 0);
  EXPECT_LE(engine.state().max_load(), T);
}

TEST(ResourceProtocolTest, AlreadyBalancedTakesZeroRounds) {
  const Graph g = tlb::graph::complete(8);
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  ResourceProtocolConfig cfg = make_config(10.0);
  ResourceControlledEngine engine(g, ts, cfg);
  Rng rng(2);
  tlb::tasks::Placement spread(8);
  for (std::size_t i = 0; i < 8; ++i) spread[i] = static_cast<Node>(i);
  const RunResult r = engine.run(spread, rng);
  EXPECT_TRUE(r.balanced);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(ResourceProtocolTest, WeightConservedEveryRound) {
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::two_point(60, 4, 8.0);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  ResourceProtocolConfig cfg = make_config(T, tlb::randomwalk::WalkKind::kLazy);
  cfg.options.paranoid_checks = true;  // SystemState invariants each round
  ResourceControlledEngine engine(g, ts, cfg);
  Rng rng(3);
  const RunResult r = engine.run(all_on_one(ts), rng);
  EXPECT_TRUE(r.balanced);
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-9);
  EXPECT_NO_THROW(engine.state().check_invariants());
}

TEST(ResourceProtocolTest, Observation4PotentialNeverIncreases) {
  const Graph g = tlb::graph::grid2d(5, 5, /*torus=*/true);
  const TaskSet ts = tlb::tasks::two_point(120, 6, 10.0);
  const double T =
      threshold_value(ThresholdKind::kTightResource, ts, g.num_nodes());
  ResourceProtocolConfig cfg = make_config(T, tlb::randomwalk::WalkKind::kLazy);
  ResourceControlledEngine engine(g, ts, cfg);
  engine.reset(all_on_one(ts));
  Rng rng(4);
  tlb::engine::PotentialTrace trace;
  const RunResult r = tlb::engine::drive(
      engine, rng, tlb::engine::DriveOptions::from(cfg.options), &trace);
  const std::vector<double>& phi = trace.trace();
  ASSERT_TRUE(r.balanced);
  ASSERT_GE(phi.size(), 2u);
  for (std::size_t t = 1; t < phi.size(); ++t) {
    EXPECT_LE(phi[t], phi[t - 1] + 1e-9) << "round " << t;
  }
  EXPECT_DOUBLE_EQ(phi.back(), 0.0);
}

TEST(ResourceProtocolTest, ActiveSetEqualsOverloadedSet) {
  const Graph g = tlb::graph::cycle(16);
  const TaskSet ts = tlb::tasks::uniform_unit(64);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.4);
  ResourceControlledEngine engine(g, ts,
                                  make_config(T, tlb::randomwalk::WalkKind::kLazy));
  Rng rng(5);
  engine.reset(all_on_one(ts));
  for (int round = 0; round < 300 && !engine.balanced(); ++round) {
    // Invariant: pending tasks live exactly on overloaded resources.
    for (Node v = 0; v < g.num_nodes(); ++v) {
      const auto& stack = engine.state().stack(v);
      if (stack.pending_count() > 0) {
        EXPECT_GT(stack.load(), T) << "node " << v;
      } else {
        EXPECT_LE(stack.load(), T) << "node " << v;
      }
    }
    engine.step(rng);
  }
  EXPECT_TRUE(engine.balanced());
}

TEST(ResourceProtocolTest, AcceptedTasksNeverMove) {
  // Record owner of each accepted task the first time it is accepted and
  // verify it never changes afterwards.
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::uniform_unit(60);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.5);
  ResourceControlledEngine engine(g, ts,
                                  make_config(T, tlb::randomwalk::WalkKind::kLazy));
  Rng rng(6);
  engine.reset(all_on_one(ts));
  std::vector<int> accepted_on(ts.size(), -1);
  auto scan = [&] {
    for (Node v = 0; v < g.num_nodes(); ++v) {
      const auto& stack = engine.state().stack(v);
      const auto& ids = stack.tasks();
      for (std::size_t i = 0; i < stack.accepted_count(); ++i) {
        if (accepted_on[ids[i]] == -1) {
          accepted_on[ids[i]] = static_cast<int>(v);
        } else {
          EXPECT_EQ(accepted_on[ids[i]], static_cast<int>(v))
              << "accepted task " << ids[i] << " moved";
        }
      }
    }
  };
  for (int round = 0; round < 1000 && !engine.balanced(); ++round) {
    scan();
    engine.step(rng);
  }
  scan();
  EXPECT_TRUE(engine.balanced());
}

struct FamilyCase {
  const char* family;
  ThresholdKind kind;
};

class ResourceProtocolFamilyTest
    : public ::testing::TestWithParam<FamilyCase> {
 protected:
  Graph make_graph(Rng& rng) const {
    const std::string f = GetParam().family;
    if (f == "complete") return tlb::graph::complete(36);
    if (f == "cycle") return tlb::graph::cycle(36);
    if (f == "torus") return tlb::graph::grid2d(6, 6, true);
    if (f == "grid") return tlb::graph::grid2d(6, 6, false);
    if (f == "hypercube") return tlb::graph::hypercube(5);
    if (f == "expander") return tlb::graph::random_regular(36, 4, rng);
    return tlb::graph::clique_plus_satellite(36, 6);
  }
};

TEST_P(ResourceProtocolFamilyTest, BalancesWeightedLoadEverywhere) {
  Rng graph_rng(123);
  const Graph g = make_graph(graph_rng);
  const TaskSet ts = tlb::tasks::two_point(4 * g.num_nodes(), 5, 6.0);
  const double T = GetParam().kind == ThresholdKind::kAboveAverage
                       ? threshold_value(ThresholdKind::kAboveAverage, ts,
                                         g.num_nodes(), 0.25)
                       : threshold_value(GetParam().kind, ts, g.num_nodes());
  // Lazy walk everywhere: uniformly safe for bipartite families.
  ResourceControlledEngine engine(
      g, ts, make_config(T, tlb::randomwalk::WalkKind::kLazy));
  Rng rng(99);
  const RunResult r = engine.run(all_on_one(ts), rng);
  EXPECT_TRUE(r.balanced) << GetParam().family;
  EXPECT_LE(engine.state().max_load(), T);
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ResourceProtocolFamilyTest,
    ::testing::Values(
        FamilyCase{"complete", ThresholdKind::kAboveAverage},
        FamilyCase{"complete", ThresholdKind::kTightResource},
        FamilyCase{"cycle", ThresholdKind::kAboveAverage},
        FamilyCase{"cycle", ThresholdKind::kTightResource},
        FamilyCase{"torus", ThresholdKind::kAboveAverage},
        FamilyCase{"grid", ThresholdKind::kAboveAverage},
        FamilyCase{"hypercube", ThresholdKind::kAboveAverage},
        FamilyCase{"expander", ThresholdKind::kAboveAverage},
        FamilyCase{"clique_satellite", ThresholdKind::kTightResource}),
    [](const auto& param_info) {
      return std::string(param_info.param.family) + "_" +
             (param_info.param.kind == ThresholdKind::kAboveAverage ? "aboveavg"
                                                              : "tight");
    });

TEST(ResourceProtocolTest, RejectsNonPositiveThreshold) {
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts = tlb::tasks::uniform_unit(4);
  EXPECT_THROW(
      ResourceControlledEngine(g, ts, make_config(0.0)),
      std::invalid_argument);
  // Non-finite thresholds: NaN passes an ordered `<= 0` check and reads
  // every load as balanced; infinity never overloads anything either.
  for (const double bad : {kNaN, kInf, -kInf}) {
    EXPECT_THROW(ResourceControlledEngine(g, ts, make_config(bad)),
                 std::invalid_argument)
        << bad;
    ResourceProtocolConfig per = make_config(1.0);
    per.thresholds = {2.0, bad, 2.0, 2.0};
    EXPECT_THROW(ResourceControlledEngine(g, ts, per), std::invalid_argument)
        << bad;
  }
}

TEST(ResourceProtocolTest, DeterministicGivenSeed) {
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::uniform_unit(48);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  auto cfg = make_config(T, tlb::randomwalk::WalkKind::kLazy);
  ResourceControlledEngine a(g, ts, cfg), b(g, ts, cfg);
  Rng rng_a(77), rng_b(77);
  const RunResult ra = a.run(all_on_one(ts), rng_a);
  const RunResult rb = b.run(all_on_one(ts), rng_b);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.migrations, rb.migrations);
}

}  // namespace
