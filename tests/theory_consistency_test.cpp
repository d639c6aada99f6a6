// Cross-subsystem consistency checks: quantities computed by independent
// code paths (spectral vs empirical, resistance vs hitting, bounds vs
// measurements) must agree wherever theory says they must.
#include <gtest/gtest.h>

#include <cmath>

#include "tlb/core/thresholds.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/randomwalk/cover.hpp"
#include "tlb/randomwalk/hitting.hpp"
#include "tlb/randomwalk/mixing.hpp"
#include "tlb/randomwalk/resistance.hpp"
#include "tlb/randomwalk/spectral.hpp"
#include "tlb/sim/theory.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb;
using namespace tlb::randomwalk;
using graph::Graph;
using graph::Node;
using util::Rng;

// ---- mixing: Lemma 2's analytic bound dominates the empirical time --------

class MixingBoundTest
    : public ::testing::TestWithParam<std::tuple<const char*, WalkKind>> {
 protected:
  Graph make_graph() const {
    const std::string name = std::get<0>(GetParam());
    Rng rng(17);
    if (name == "complete") return graph::complete(40);
    if (name == "odd_cycle") return graph::cycle(41);
    if (name == "grid") return graph::grid2d(6, 7);
    if (name == "star") return graph::star(40);
    if (name == "expander") return graph::random_regular(40, 4, rng);
    return graph::clique_plus_satellite(40, 4);
  }
};

TEST_P(MixingBoundTest, EmpiricalBelowAnalytic) {
  const Graph g = make_graph();
  const TransitionModel walk(g, std::get<1>(GetParam()));
  const double bound = mixing_time_bound(walk);
  if (!std::isfinite(bound) || bound > 1e7) GTEST_SKIP() << "periodic chain";
  const long empirical = empirical_mixing_time_from(walk, 0);
  ASSERT_GE(empirical, 0);
  // Lemma 2's bound targets TV <= n^-3, much stronger than t_mix(1/4).
  EXPECT_LE(static_cast<double>(empirical), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MixingBoundTest,
    ::testing::Combine(::testing::Values("complete", "odd_cycle", "grid",
                                         "star", "expander", "satellite"),
                       ::testing::Values(WalkKind::kMaxDegree, WalkKind::kLazy)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_" +
             (std::get<1>(param_info.param) == WalkKind::kMaxDegree ? "maxdeg"
                                                              : "lazy");
    });

// ---- hitting: three solvers and the commute identity agree ----------------

TEST(SolverAgreementTest, DenseGaussSeidelMonteCarloResistance) {
  Rng rng(23);
  const Graph g = graph::random_regular(20, 4, rng);
  const TransitionModel walk(g);
  const Node u = 0, v = 13;

  const auto dense_to_v = hitting_times_to_dense(walk, v);
  const auto gs_to_v = hitting_times_to(walk, v);
  EXPECT_NEAR(gs_to_v[u], dense_to_v[u], 1e-5 * (1.0 + dense_to_v[u]));

  Rng mc_rng(29);
  const double mc = mc_hitting_time(walk, u, v, 6000, mc_rng);
  // se ~ H/sqrt(trials); allow 6 sigma of a geometric-tail-ish variance.
  EXPECT_NEAR(mc, dense_to_v[u], 6.0 * dense_to_v[u] / std::sqrt(6000.0));

  const auto dense_to_u = hitting_times_to_dense(walk, u);
  EXPECT_NEAR(commute_time(walk, u, v), dense_to_v[u] + dense_to_u[v],
              1e-6 * (dense_to_v[u] + dense_to_u[v]));
}

TEST(SolverAgreementTest, CommuteBoundsSingleHitting) {
  // H(u,v) <= C(u,v) always.
  const Graph g = graph::grid2d(5, 5);
  const TransitionModel walk(g);
  const auto h = hitting_times_to_dense(walk, 24);
  EXPECT_LE(h[0], commute_time(walk, 0, 24) + 1e-9);
}

// ---- cover time sits between max hitting and the Matthews bound -----------

TEST(CoverConsistencyTest, SandwichedByHittingQuantities) {
  const Graph g = graph::grid2d(4, 5);
  const TransitionModel walk(g);
  const double H = max_hitting_time_dense(walk);
  Rng rng(31);
  const double cover = mc_cover_time(walk, 0, 600, rng);
  // Cover from a worst start is at least the hardest single hit *from that
  // start*; use the max over targets from node 0 as the floor.
  const auto h_from_0 = [&] {
    double best = 0.0;
    for (Node target = 1; target < g.num_nodes(); ++target) {
      best = std::max(best, hitting_times_to_dense(walk, target)[0]);
    }
    return best;
  }();
  EXPECT_GE(cover, 0.8 * h_from_0);  // MC slack
  EXPECT_LE(cover, matthews_bound(H, g.num_nodes()) * 1.05);
}

// ---- thresholds: regime ordering and limits --------------------------------

TEST(ThresholdConsistencyTest, RegimeOrderingHolds) {
  const tasks::TaskSet ts = tasks::two_point(500, 10, 20.0);
  const Node n = 50;
  const double tight_user =
      core::threshold_value(core::ThresholdKind::kTightUser, ts, n);
  const double tight_resource =
      core::threshold_value(core::ThresholdKind::kTightResource, ts, n);
  const double above =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, 0.2);
  EXPECT_LT(tight_user, tight_resource);  // + w_max vs + 2 w_max
  EXPECT_GT(above, tight_user);           // (1+eps) > 1
}

TEST(ThresholdConsistencyTest, AboveAverageApproachesTightUserAsEpsVanishes) {
  const tasks::TaskSet ts = tasks::uniform_unit(300);
  const Node n = 30;
  const double tight =
      core::threshold_value(core::ThresholdKind::kTightUser, ts, n);
  const double nearly =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, 1e-9);
  EXPECT_NEAR(nearly, tight, 1e-6);
}

// ---- theorem bounds: parameter monotonicity --------------------------------

TEST(BoundMonotonicityTest, Theorem3) {
  // Larger tau, larger m, smaller eps => larger bound.
  EXPECT_LT(sim::theorem3_bound(10, 1000, 0.5), sim::theorem3_bound(20, 1000, 0.5));
  EXPECT_LT(sim::theorem3_bound(10, 1000, 0.5), sim::theorem3_bound(10, 10000, 0.5));
  EXPECT_LT(sim::theorem3_bound(10, 1000, 0.5), sim::theorem3_bound(10, 1000, 0.1));
}

TEST(BoundMonotonicityTest, Theorem7And11And12) {
  EXPECT_LT(sim::theorem7_bound(100, 1000), sim::theorem7_bound(200, 1000));
  EXPECT_LT(sim::theorem7_bound(100, 1000), sim::theorem7_bound(100, 100000));
  EXPECT_LT(sim::theorem11_bound(0.2, 0.5, 4, 1, 1000),
            sim::theorem11_bound(0.2, 0.25, 4, 1, 1000));  // smaller alpha
  EXPECT_LT(sim::theorem12_bound(100, 1.0, 4, 1, 1000),
            sim::theorem12_bound(200, 1.0, 4, 1, 1000));   // larger n
}

// ---- spectral gap orders families the same way empirical mixing does ------

TEST(SpectralOrderingTest, GapAndMixingAgreeOnRanking) {
  Rng rng(37);
  const Graph expander = graph::random_regular(64, 6, rng);
  const Graph torus = graph::grid2d(8, 8, true);
  const TransitionModel we(expander, WalkKind::kLazy);
  const TransitionModel wt(torus, WalkKind::kLazy);
  const double gap_e = spectral_gap(we);
  const double gap_t = spectral_gap(wt);
  const long mix_e = empirical_mixing_time_from(we, 0);
  const long mix_t = empirical_mixing_time_from(wt, 0);
  EXPECT_GT(gap_e, gap_t);
  EXPECT_LT(mix_e, mix_t);
}

}  // namespace
