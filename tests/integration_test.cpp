// End-to-end integration tests: miniature versions of every benchmark,
// asserting the *qualitative* claims of the paper's evaluation on instances
// small enough for CI.
#include <gtest/gtest.h>

#include <cmath>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/randomwalk/hitting.hpp"
#include "tlb/randomwalk/mixing.hpp"
#include "tlb/randomwalk/spectral.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/sim/theory.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb;
using core::ResourceControlledEngine;
using core::ResourceProtocolConfig;
using core::RunResult;
using core::threshold_value;
using core::ThresholdKind;
using core::UserControlledEngine;
using core::UserProtocolConfig;
using graph::Node;
using tasks::all_on_one;
using tasks::TaskSet;
using util::Rng;
using tlb::engine::reset_and_run;

// -- Figure 2 miniature: time/log m flat in m, increasing in w_max ----------

double fig2_normalized_time(Node n, std::size_t m, double w_max,
                            std::size_t trials) {
  const TaskSet ts = tasks::single_heavy(m, w_max);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserProtocolConfig cfg;
  cfg.threshold = T;
  cfg.alpha = 1.0;
  const auto stats = sim::run_trials(trials, 0xF16'2 + m, [&](Rng& rng) {
    core::GroupedUserEngine engine(ts, n, cfg);
    return reset_and_run(engine, all_on_one(ts), rng, {.max_rounds = 100000});
  });
  return stats.rounds.mean() / std::log2(static_cast<double>(m));
}

TEST(Figure2Integration, NormalizedTimeGrowsWithWmax) {
  const Node n = 100;
  const double t_small = fig2_normalized_time(n, 800, 4.0, 30);
  const double t_large = fig2_normalized_time(n, 800, 32.0, 30);
  EXPECT_GT(t_large, 2.0 * t_small)
      << "w_max=4: " << t_small << ", w_max=32: " << t_large;
}

TEST(Figure2Integration, NormalizedTimeRoughlyFlatInM) {
  const Node n = 100;
  const double t_small_m = fig2_normalized_time(n, 400, 16.0, 30);
  const double t_large_m = fig2_normalized_time(n, 1600, 16.0, 30);
  // "Flat" within a factor ~1.6 despite 4x more tasks.
  EXPECT_LT(t_large_m, 1.6 * t_small_m);
  EXPECT_GT(t_large_m, t_small_m / 1.6);
}

// -- Figure 1 miniature: balancing time ~ log m, insensitive to k -----------

double fig1_time(Node n, double W, std::size_t k, std::size_t trials) {
  const TaskSet ts = tasks::figure1_profile(W, k, 20.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  UserProtocolConfig cfg;
  cfg.threshold = T;
  cfg.alpha = 1.0;
  const auto stats = sim::run_trials(trials, 0xF1'6 + k, [&](Rng& rng) {
    core::GroupedUserEngine engine(ts, n, cfg);
    return reset_and_run(engine, all_on_one(ts), rng, {.max_rounds = 100000});
  });
  return stats.rounds.mean();
}

TEST(Figure1Integration, TimeInsensitiveToHeavyCount) {
  const Node n = 100;
  const double t_k1 = fig1_time(n, 1000.0, 1, 30);
  const double t_k10 = fig1_time(n, 1000.0, 10, 30);
  EXPECT_LT(std::fabs(t_k1 - t_k10), 0.5 * std::max(t_k1, t_k10))
      << "k=1: " << t_k1 << ", k=10: " << t_k10;
}

TEST(Figure1Integration, TimeGrowsSublinearlyInW) {
  const Node n = 100;
  const double t_1k = fig1_time(n, 1000.0, 5, 30);
  const double t_4k = fig1_time(n, 4000.0, 5, 30);
  EXPECT_GT(t_4k, t_1k);          // grows...
  EXPECT_LT(t_4k, 2.5 * t_1k);    // ...but far slower than 4x (log-like)
}

// -- Theorem 3 miniature: better-mixing graphs balance faster ---------------

double resource_time(const graph::Graph& g, const TaskSet& ts, double T,
                     std::size_t trials, std::uint64_t seed) {
  ResourceProtocolConfig cfg;
  cfg.threshold = T;
  cfg.walk = randomwalk::WalkKind::kLazy;
  const auto stats = sim::run_trials(trials, seed, [&](Rng& rng) {
    ResourceControlledEngine engine(g, ts, cfg);
    return reset_and_run(engine, all_on_one(ts), rng, {.max_rounds = 500000});
  });
  return stats.rounds.mean();
}

TEST(Theorem3Integration, CompleteBeatsTorusBeatsCycle) {
  const Node n = 64;
  const TaskSet ts = tasks::uniform_unit(8 * n);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.25);
  const double t_complete =
      resource_time(graph::complete(n), ts, T, 20, 0x731);
  const double t_torus =
      resource_time(graph::grid2d(8, 8, true), ts, T, 20, 0x732);
  const double t_cycle = resource_time(graph::cycle(n), ts, T, 20, 0x733);
  EXPECT_LT(t_complete, t_torus);
  EXPECT_LT(t_torus, t_cycle);
}

TEST(Theorem3Integration, MeasuredTimeWithinTheoremBound) {
  const Node n = 32;
  const TaskSet ts = tasks::two_point(5 * n, 4, 8.0);
  const double eps = 0.25;
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, eps);
  const auto g = graph::complete(n);
  const randomwalk::TransitionModel walk(g, randomwalk::WalkKind::kLazy);
  const double tau = randomwalk::mixing_time_bound(walk);
  const double bound = sim::theorem3_bound(tau, ts.size(), eps);
  const double measured = resource_time(g, ts, T, 20, 0x734);
  EXPECT_LE(measured, bound);
}

// -- Theorem 7 miniature: tight threshold still terminates, slower ----------

TEST(Theorem7Integration, TightSlowerThanAboveAverage) {
  // Unit tasks with average load 8: the above-average threshold (ε = 0.5)
  // is 13 while the tight one is 10, so tight genuinely binds. (With heavy
  // w_max relative to W/n the "tight" W/n + 2·w_max can exceed the
  // above-average threshold, which would invert the comparison.)
  const Node n = 36;
  const TaskSet ts = tasks::uniform_unit(8 * n);
  const auto g = graph::grid2d(6, 6, true);
  const double t_above = resource_time(
      g, ts, threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.5), 20,
      0x735);
  const double t_tight = resource_time(
      g, ts, threshold_value(ThresholdKind::kTightResource, ts, n), 20, 0x736);
  EXPECT_GE(t_tight, t_above);
}

TEST(Theorem7Integration, MeasuredWithinDriftBound) {
  const Node n = 25;
  const TaskSet ts = tasks::uniform_unit(4 * n);
  const auto g = graph::grid2d(5, 5, true);
  const double T = threshold_value(ThresholdKind::kTightResource, ts, n);
  const randomwalk::TransitionModel walk(g, randomwalk::WalkKind::kLazy);
  const double H = randomwalk::max_hitting_time_over_targets(walk, {0});
  const double bound = sim::theorem7_bound(H, ts.total_weight());
  const double measured = resource_time(g, ts, T, 20, 0x737);
  EXPECT_LE(measured, bound);
}

// -- Observation 8 miniature: satellite bottleneck scales with 1/k ----------

TEST(Observation8Integration, FewerBridgeEdgesSlowerBalancing) {
  // The lower bound needs the overflow on clique node 0 to exceed the
  // clique's residual capacity of 2·w_max per node, which requires
  // m = Ω(n²): with m = 3n² the pile is ~3n while the clique can absorb
  // only ~2n, so ~n tasks must funnel through the k satellite edges.
  const Node n = 32;
  const TaskSet ts = tasks::uniform_unit(3 * n * n);
  const double T = threshold_value(ThresholdKind::kTightResource, ts, n);
  auto time_for_k = [&](Node k, std::uint64_t seed) {
    const auto g = graph::clique_plus_satellite(n, k);
    ResourceProtocolConfig cfg;
    cfg.threshold = T;
    const auto stats = sim::run_trials(30, seed, [&](Rng& rng) {
      ResourceControlledEngine engine(g, ts, cfg);
      // Adversarial start: clique saturated at W/n, rest piled on node 0.
      return reset_and_run(engine, tasks::observation8_adversarial(ts, n), rng,
                           {.max_rounds = 500000});
    });
    return stats.rounds.mean();
  };
  const double t_k1 = time_for_k(1, 0x811);
  const double t_k8 = time_for_k(8, 0x818);
  EXPECT_GT(t_k1, 1.5 * t_k8) << "k=1: " << t_k1 << " k=8: " << t_k8;
  EXPECT_GT(t_k1, 10.0);  // genuinely bottlenecked, not a 1-round fluke
}

// -- Theorem 11 miniature: measured time within the analytic bound ----------

TEST(Theorem11Integration, MeasuredWithinBoundWithPaperAlpha) {
  const Node n = 50;
  const double eps = 0.2;
  const TaskSet ts = tasks::two_point(200, 4, 8.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, eps);
  const double alpha = sim::paper_alpha(eps);
  UserProtocolConfig cfg;
  cfg.threshold = T;
  cfg.alpha = alpha;
  const auto stats = sim::run_trials(10, 0xB11, [&](Rng& rng) {
    core::GroupedUserEngine engine(ts, n, cfg);
    return reset_and_run(engine, all_on_one(ts), rng,
                         {.max_rounds = 2000000});
  });
  const double bound =
      sim::theorem11_bound(eps, alpha, ts.max_weight(), ts.min_weight(),
                           ts.size());
  EXPECT_EQ(stats.unbalanced, 0u);
  EXPECT_LE(stats.rounds.mean(), bound);
}

}  // namespace
