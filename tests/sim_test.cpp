// Tests for the simulation harness: graph specs, the parallel trial runner
// (determinism across thread counts), theory formulas.
#include <gtest/gtest.h>

#include <cmath>

#include "tlb/graph/properties.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/sim/theory.hpp"

namespace {

using namespace tlb::sim;
using tlb::util::Rng;

TEST(GraphSpecTest, ParseFamilyRoundTrip) {
  for (const char* name : {"complete", "cycle", "torus", "grid", "hypercube",
                           "regular", "erdos_renyi", "clique_satellite"}) {
    EXPECT_STREQ(family_name(parse_family(name)), name);
  }
  EXPECT_EQ(parse_family("er"), GraphFamily::kErdosRenyi);
  EXPECT_EQ(parse_family("expander"), GraphFamily::kRegular);
  EXPECT_THROW(parse_family("petersen"), std::invalid_argument);
}

TEST(GraphSpecTest, BuildProducesConnectedGraphs) {
  Rng rng(1);
  for (auto family :
       {GraphFamily::kComplete, GraphFamily::kCycle, GraphFamily::kTorus,
        GraphFamily::kGrid, GraphFamily::kHypercube, GraphFamily::kRegular,
        GraphFamily::kErdosRenyi, GraphFamily::kCliqueSatellite}) {
    GraphSpec spec;
    spec.family = family;
    spec.n = 64;
    spec.degree = 4;
    const auto g = spec.build(rng);
    EXPECT_TRUE(tlb::graph::is_connected(g)) << family_name(family);
    EXPECT_GE(g.num_nodes(), 16u) << family_name(family);
  }
}

TEST(GraphSpecTest, HypercubeRoundsToPowerOfTwo) {
  GraphSpec spec;
  spec.family = GraphFamily::kHypercube;
  spec.n = 100;
  Rng rng(2);
  EXPECT_EQ(spec.build(rng).num_nodes(), 64u);
}

TEST(GraphSpecTest, RecommendedWalkIsLazyForBipartiteFamilies) {
  GraphSpec spec;
  spec.family = GraphFamily::kHypercube;
  EXPECT_EQ(spec.recommended_walk(), tlb::randomwalk::WalkKind::kLazy);
  spec.family = GraphFamily::kComplete;
  EXPECT_EQ(spec.recommended_walk(), tlb::randomwalk::WalkKind::kMaxDegree);
}

TEST(RunnerTest, AggregatesBasicStats) {
  const auto stats = run_trials(50, 42, [](Rng& rng) {
    tlb::core::RunResult r;
    r.rounds = 10 + static_cast<long>(rng.uniform_below(5));
    r.balanced = true;
    r.migrations = 100;
    return r;
  });
  EXPECT_EQ(stats.rounds.count(), 50u);
  EXPECT_GE(stats.rounds.mean(), 10.0);
  EXPECT_LE(stats.rounds.mean(), 14.0);
  EXPECT_EQ(stats.unbalanced, 0u);
  EXPECT_EQ(stats.rounds_samples.size(), 50u);
}

TEST(RunnerTest, CountsUnbalancedTrials) {
  const auto stats = run_trials(10, 1, [](Rng&) {
    tlb::core::RunResult r;
    r.balanced = false;
    return r;
  });
  EXPECT_EQ(stats.unbalanced, 10u);
}

TEST(RunnerTest, DeterministicAcrossThreadCounts) {
  auto trial = [](Rng& rng) {
    tlb::core::RunResult r;
    r.rounds = static_cast<long>(rng.uniform_below(1000));
    r.balanced = true;
    return r;
  };
  const auto serial = run_trials(64, 7, trial, /*threads=*/1);
  const auto parallel = run_trials(64, 7, trial, /*threads=*/4);
  EXPECT_EQ(serial.rounds.mean(), parallel.rounds.mean());
  EXPECT_EQ(serial.rounds_samples, parallel.rounds_samples);
}

TEST(TheoryTest, Theorem3BoundFormula) {
  // 2(c+1)·τ·ln m / ln(2(1+ε)/(2+ε)) with c=1, τ=10, m=e², ε=1:
  // denominator ln(4/3).
  const double bound = theorem3_bound(10.0, 7, 1.0, 1.0);
  EXPECT_NEAR(bound, 4.0 * 10.0 * std::log(7.0) / std::log(4.0 / 3.0), 1e-9);
  EXPECT_THROW(theorem3_bound(10.0, 7, 0.0), std::invalid_argument);
}

TEST(TheoryTest, Theorem7BoundFormula) {
  EXPECT_NEAR(theorem7_bound(100.0, std::exp(1.0)), 8.0 * 100.0 * 2.0, 1e-9);
}

TEST(TheoryTest, PaperAlphaValue) {
  EXPECT_NEAR(paper_alpha(0.2), 0.2 / (120.0 * 1.2), 1e-12);
  EXPECT_THROW(paper_alpha(0.0), std::invalid_argument);
}

TEST(TheoryTest, Theorem11And12Monotonicity) {
  // Both bounds grow linearly in w_max/w_min and logarithmically in m.
  const double base = theorem11_bound(0.2, 1.0, 1.0, 1.0, 1000);
  EXPECT_NEAR(theorem11_bound(0.2, 1.0, 8.0, 1.0, 1000), 8.0 * base, 1e-9);
  EXPECT_GT(theorem11_bound(0.2, 1.0, 1.0, 1.0, 100000), base);

  const double tight = theorem12_bound(100, 0.001, 2.0, 1.0, 1000);
  EXPECT_NEAR(tight,
              2.0 * 100.0 / 0.001 * 2.0 * std::log(1000.0), 1e-6);
}

TEST(TheoryTest, Observation8Shape) {
  // n²/k·ln m: halving k doubles the shape.
  const double s1 = observation8_shape(100, 10, 1000);
  const double s2 = observation8_shape(100, 5, 1000);
  EXPECT_NEAR(s2, 2.0 * s1, 1e-9);
}

}  // namespace
