// Randomized property sweeps: the protocol invariants that must hold on
// EVERY run, exercised across a matrix of (graph family × weight profile ×
// threshold regime × placement × seed). Complements the targeted unit tests
// with breadth: each instantiation checks
//   * termination within the round cap,
//   * every final load within its resource's threshold,
//   * exact weight conservation and no task duplication/loss,
//   * resource protocol: potential (eq. 1) monotone, balanced <=> Φ = 0,
//   * above-average runs: Lemma 1's acceptor bound at termination.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "tlb/core/potential.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/tasks/first_fit.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb;
using core::ThresholdKind;
using graph::Graph;
using graph::Node;
using tasks::TaskSet;
using util::Rng;

// ---- parameter space -------------------------------------------------------

struct SweepCase {
  const char* graph;
  const char* weights;
  ThresholdKind kind;
  const char* placement;
  std::uint64_t seed;
};

std::string case_name(const SweepCase& c) {
  std::string kind = c.kind == ThresholdKind::kAboveAverage ? "above"
                     : c.kind == ThresholdKind::kTightResource
                         ? "tightR"
                         : "tightU";
  return std::string(c.graph) + "_" + c.weights + "_" + kind + "_" +
         c.placement + "_s" + std::to_string(c.seed);
}

Graph build_graph(const std::string& name, Rng& rng) {
  if (name == "complete") return graph::complete(48);
  if (name == "torus") return graph::grid2d(7, 7, true);
  if (name == "expander") return graph::random_regular(48, 4, rng);
  if (name == "satellite") return graph::clique_plus_satellite(48, 5);
  return graph::grid2d(7, 7, false);
}

TaskSet build_tasks(const std::string& name, std::size_t m, Rng& rng) {
  if (name == "units") return tasks::uniform_unit(m);
  if (name == "twopoint") return tasks::two_point(m - m / 10, m / 10, 9.0);
  if (name == "heavy1") return tasks::single_heavy(m, 16.0);
  if (name == "pareto") return tasks::bounded_pareto(m, 2.3, 24.0, rng);
  return tasks::geometric_octaves(m, 4, rng);
}

tasks::Placement build_placement(const std::string& name, const TaskSet& ts,
                                 Node n, Rng& rng) {
  if (name == "pile") return tasks::all_on_one(ts, 0);
  if (name == "random") return tasks::uniform_random(ts, n, rng);
  return tasks::round_robin(ts, n, std::max<Node>(2, n / 8));
}

// ---- the sweeps ------------------------------------------------------------

class ResourceSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ResourceSweepTest, AllInvariantsHold) {
  const auto& c = GetParam();
  Rng setup_rng(c.seed);
  const Graph g = build_graph(c.graph, setup_rng);
  const Node n = g.num_nodes();
  const TaskSet ts = build_tasks(c.weights, 6 * n, setup_rng);
  const double T =
      c.kind == ThresholdKind::kAboveAverage
          ? core::threshold_value(c.kind, ts, n, 0.3)
          : core::threshold_value(ThresholdKind::kTightResource, ts, n);

  core::ResourceProtocolConfig cfg;
  cfg.threshold = T;
  cfg.walk = randomwalk::WalkKind::kLazy;
  core::ResourceControlledEngine engine(g, ts, cfg);
  Rng run_rng(c.seed ^ 0xabcdef);
  tlb::engine::PotentialTrace trace;
  const auto result = tlb::engine::reset_and_run(
      engine, build_placement(c.placement, ts, n, setup_rng), run_rng,
      {.max_rounds = 500000}, &trace);
  const std::vector<double>& phi = trace.trace();

  // Termination and threshold satisfaction.
  ASSERT_TRUE(result.balanced) << case_name(c);
  EXPECT_LE(engine.state().max_load(), T + 1e-9);

  // Conservation and structural integrity.
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-6);
  EXPECT_NO_THROW(engine.state().check_invariants());

  // Observation 4 along the whole trajectory, ending at zero (up to the
  // float residue of incremental load accounting with real-valued weights).
  for (std::size_t t = 1; t < phi.size(); ++t) {
    ASSERT_LE(phi[t], phi[t - 1] + 1e-9) << case_name(c) << " round " << t;
  }
  EXPECT_NEAR(phi.back(), 0.0, 1e-9);
}

class UserSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UserSweepTest, AllInvariantsHold) {
  const auto& c = GetParam();
  Rng setup_rng(c.seed);
  const Node n = 48;
  const TaskSet ts = build_tasks(c.weights, 6 * n, setup_rng);
  const double eps = 0.3;
  const double T = c.kind == ThresholdKind::kAboveAverage
                       ? core::threshold_value(c.kind, ts, n, eps)
                       : core::threshold_value(ThresholdKind::kTightUser, ts, n);

  core::UserProtocolConfig cfg;
  cfg.threshold = T;
  cfg.alpha = c.kind == ThresholdKind::kAboveAverage ? 1.0 : 0.5;
  core::UserControlledEngine engine(ts, n, cfg);
  Rng run_rng(c.seed ^ 0x123456);
  const auto placement = build_placement(c.placement, ts, n, setup_rng);
  const auto result = tlb::engine::reset_and_run(engine, placement, run_rng,
                                                 {.max_rounds = 500000});

  ASSERT_TRUE(result.balanced) << case_name(c);
  EXPECT_LE(engine.state().max_load(), T + 1e-9);
  EXPECT_NEAR(engine.state().total_load(), ts.total_weight(), 1e-6);
  EXPECT_NO_THROW(engine.state().check_invariants());
  EXPECT_DOUBLE_EQ(core::user_potential(engine.state()), 0.0);

  if (c.kind == ThresholdKind::kAboveAverage) {
    // Lemma 1 at the terminal state.
    EXPECT_GE(core::acceptor_fraction(engine.state(), ts.max_weight()),
              eps / (1.0 + eps) - 1e-12);
  }
}

// First-fit proper assignment as a universal oracle across the same weight
// profiles: always within W/n + w_max.
class FirstFitSweepTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(FirstFitSweepTest, BoundHolds) {
  const auto& [weights, seed] = GetParam();
  Rng rng(seed);
  const Node n = 37;
  const TaskSet ts = build_tasks(weights, 12 * n, rng);
  const auto pa = tasks::first_fit(ts, n);
  EXPECT_LE(pa.max_load, ts.total_weight() / n + ts.max_weight() + 1e-9);
}

// ---- instantiations --------------------------------------------------------

std::vector<SweepCase> resource_cases() {
  std::vector<SweepCase> cases;
  const char* graphs[] = {"complete", "torus", "expander", "satellite", "grid"};
  const char* weights[] = {"units", "twopoint", "pareto"};
  const char* placements[] = {"pile", "random"};
  std::uint64_t seed = 100;
  for (const char* g : graphs) {
    for (const char* w : weights) {
      for (const char* p : placements) {
        cases.push_back({g, w, ThresholdKind::kAboveAverage, p, ++seed});
      }
    }
    cases.push_back({g, "units", ThresholdKind::kTightResource, "pile", ++seed});
  }
  return cases;
}

std::vector<SweepCase> user_cases() {
  std::vector<SweepCase> cases;
  const char* weights[] = {"units", "twopoint", "heavy1", "pareto", "octaves"};
  const char* placements[] = {"pile", "random", "robin"};
  std::uint64_t seed = 500;
  for (const char* w : weights) {
    for (const char* p : placements) {
      cases.push_back({"complete", w, ThresholdKind::kAboveAverage, p, ++seed});
    }
  }
  cases.push_back({"complete", "units", ThresholdKind::kTightUser, "pile", 991});
  cases.push_back({"complete", "twopoint", ThresholdKind::kTightUser, "random", 992});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ResourceSweepTest,
                         ::testing::ValuesIn(resource_cases()),
                         [](const auto& param_info) { return case_name(param_info.param); });

INSTANTIATE_TEST_SUITE_P(Matrix, UserSweepTest,
                         ::testing::ValuesIn(user_cases()),
                         [](const auto& param_info) { return case_name(param_info.param); });

INSTANTIATE_TEST_SUITE_P(
    Profiles, FirstFitSweepTest,
    ::testing::Combine(::testing::Values("units", "twopoint", "heavy1",
                                         "pareto", "octaves"),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{22},
                                         std::uint64_t{33})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
