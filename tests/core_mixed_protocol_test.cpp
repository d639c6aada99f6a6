// Tests for the mixed resource/user protocol (the paper's proposed future
// work): the β endpoints recover the pure protocols, intermediate blends
// terminate, the height-based eviction matches the acceptance-based one,
// and every round equals a naive reference round bit for bit.
#include "tlb/core/mixed_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tlb/core/departure.hpp"
#include "tlb/core/hetero.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/mem/task_arena.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Graph;
using tlb::graph::Node;
using tlb::mem::TaskArena;
using tlb::randomwalk::TransitionModel;
using tlb::randomwalk::WalkKind;
using tlb::tasks::all_on_one;
using tlb::tasks::Placement;
using tlb::tasks::TaskId;
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
  // bookkeeping both eviction rules must select the same suffix and leave
  // the same load, bit for bit. In the second case load - 5.0 rounds to
  // 3.3000000000000007, one ulp above the kept prefix's height.
  const std::pair<std::vector<double>, double> cases[] = {
      {{5.0, 7.0, 2.0, 1.0}, 10.0}, {{1.1, 2.2, 5.0}, 1.1 + 2.2}};
  for (const auto& [weights, T] : cases) {
    const TaskSet ts(weights);
    TaskArena with_acceptance(1), by_height(1);
    for (tlb::tasks::TaskId i = 0; i < ts.size(); ++i) {
      with_acceptance.push_accepting(0, i, ts.weight(i), T);
      by_height.push(0, i, ts.weight(i));
    }
    std::vector<tlb::tasks::TaskId> out_a, out_h;
    with_acceptance.evict_unaccepted(0, out_a);
    by_height.evict_above(0, T, out_h);
    EXPECT_EQ(out_a, out_h) << "T=" << T;
    EXPECT_EQ(with_acceptance.load(0), by_height.load(0)) << "T=" << T;
  }
}

TEST(EvictAboveTest, NoopWhenBelowThreshold) {
  TaskArena s(1);
  s.push(0, 0, 3.0);
  s.push(0, 1, 3.0);
  std::vector<tlb::tasks::TaskId> out;
  s.evict_above(0, 6.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(s.count(0), 2u);
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

TEST(MixedProtocolTest, ResourceModeLeavesNoFittingStackOverloaded) {
  // Round 1 evicts the 5.0 from resource 0 and keeps {1.1, 2.2}, which fit
  // T_0 = fl(1.1 + 2.2) exactly. A load of 8.3 - 5.0 would read
  // 3.3000000000000007 > T_0, and resource mode would find nothing to
  // evict, round after round.
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts({1.1, 2.2, 5.0});
  const double t0 = 1.1 + 2.2;
  MixedProtocolConfig cfg = make_config(1.0, /*beta=*/1.0);
  cfg.threshold = std::vector<double>{t0, 100.0, 100.0, 100.0};
  cfg.walk = WalkKind::kMaxDegree;
  MixedProtocolEngine engine(g, ts, cfg);
  Rng rng(1);
  const RunResult result =
      reset_and_run(engine, all_on_one(ts), rng, {.max_rounds = 10000});
  EXPECT_TRUE(result.balanced);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(engine.state().load(0), t0);
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
  // Non-finite blend, threshold, per-resource thresholds and alpha. A NaN
  // blend must not pass as 0, the graph-user protocol.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    EXPECT_THROW(MixedProtocolEngine(g, ts, make_config(5.0, x)),
                 std::invalid_argument)
        << x;
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

/// The mixed protocol, naively: one std::vector stack per resource, loads
/// updated as the arena does (a push adds w, a departure subtracts each
/// leaver's weight in stack order, an eviction sets the load to the kept
/// prefix's height), and a round that
///   (1) lists {r : load_r > T_r} at round start, ascending;
///   (2) per listed r, draws the β-coin only when β > 0; resource mode
///       evicts every task from the first one that does not fit completely
///       below T_r upward, user mode flips one Bernoulli(p_r) coin per task,
///       bottom to top, with p_r = leave_probability(α, φ_r, w_max, b_r);
///   (3) takes one walk.step per mover, in mover order;
///   (4) pushes the movers in mover order.
class NaiveMixedRounds {
 public:
  NaiveMixedRounds(const TaskSet& ts, std::vector<double> thresholds,
                   double beta, double alpha, const Placement& placement)
      : ts_(&ts), thresholds_(std::move(thresholds)), beta_(beta),
        alpha_(alpha), stacks_(thresholds_.size()) {
    for (TaskId id = 0; id < placement.size(); ++id) push(placement[id], id);
  }

  std::size_t step(const TransitionModel& walk, Rng& rng) {
    std::vector<Node> overloaded;
    for (Node r = 0; r < stacks_.size(); ++r) {
      if (stacks_[r].load > thresholds_[r]) overloaded.push_back(r);
    }
    std::vector<TaskId> movers;
    std::vector<Node> dst;
    bool any_resource_mode = false;
    for (const Node r : overloaded) {
      Stack& s = stacks_[r];
      std::vector<bool> leave(s.ids.size(), false);
      const auto [fit, fit_height] = fitting_prefix(r);
      const bool resource_mode = beta_ > 0.0 && rng.bernoulli(beta_);
      if (resource_mode) {
        any_resource_mode = true;
        for (std::size_t i = fit; i < s.ids.size(); ++i) leave[i] = true;
      } else {
        const double phi = s.load - fit_height;
        const double p =
            leave_probability(alpha_, phi, ts_->max_weight(), s.ids.size());
        for (std::size_t i = 0; i < s.ids.size(); ++i) {
          leave[i] = rng.bernoulli(p);
        }
      }
      std::vector<TaskId> kept;
      for (std::size_t i = 0; i < s.ids.size(); ++i) {
        if (leave[i]) {
          movers.push_back(s.ids[i]);
          dst.push_back(r);
          s.load -= ts_->weight(s.ids[i]);
        } else {
          kept.push_back(s.ids[i]);
        }
      }
      s.ids = std::move(kept);
      if (resource_mode) s.load = fit_height;
    }
    if (any_resource_mode) ++resource_rounds_;
    for (Node& d : dst) d = walk.step(d, rng);
    for (std::size_t j = 0; j < movers.size(); ++j) push(dst[j], movers[j]);
    return movers.size();
  }

  /// Expect `engine`'s state to equal this one bitwise: stacks bottom to
  /// top, loads and the resource-round count.
  void expect_matches(const MixedProtocolEngine& engine,
                      const std::string& at) const {
    const tlb::mem::TaskArena& arena = engine.state().arena();
    for (Node r = 0; r < stacks_.size(); ++r) {
      ASSERT_EQ(arena.tasks(r), stacks_[r].ids) << at << " resource " << r;
      ASSERT_EQ(arena.load(r), stacks_[r].load) << at << " resource " << r;
    }
    ASSERT_EQ(engine.resource_rounds(), resource_rounds_) << at;
  }

 private:
  struct Stack {
    std::vector<TaskId> ids;
    double load = 0.0;
  };

  /// r's largest prefix of tasks completely below T_r: its length and its
  /// height, summed bottom up.
  std::pair<std::size_t, double> fitting_prefix(Node r) const {
    const Stack& s = stacks_[r];
    double h = 0.0;
    std::size_t keep = 0;
    for (; keep < s.ids.size(); ++keep) {
      const double w = ts_->weight(s.ids[keep]);
      if (h + w > thresholds_[r]) break;
      h += w;
    }
    return {keep, h};
  }

  void push(Node r, TaskId id) {
    stacks_[r].ids.push_back(id);
    stacks_[r].load += ts_->weight(id);
  }

  const TaskSet* ts_;
  std::vector<double> thresholds_;
  double beta_;
  double alpha_;
  std::vector<Stack> stacks_;
  long resource_rounds_ = 0;
};

/// Drive the engine and the naive rounds from one seed, round by round,
/// until balanced: equal state, migrations and generator position after
/// every round.
void expect_engine_matches_naive_rounds(const Graph& g, const TaskSet& ts,
                                        const MixedProtocolConfig& cfg,
                                        const Placement& start,
                                        std::uint64_t seed,
                                        const std::string& what) {
  MixedProtocolEngine engine(g, ts, cfg);
  engine.reset(start);
  std::vector<double> thresholds(g.num_nodes());
  for (Node r = 0; r < g.num_nodes(); ++r) {
    thresholds[r] = engine.state().thresholds()[r];
  }
  NaiveMixedRounds naive(ts, thresholds, cfg.resource_probability, cfg.alpha,
                         start);
  const TransitionModel walk(g, cfg.walk);
  Rng a(seed), b(seed);
  naive.expect_matches(engine, what + " start");
  int rounds = 0;
  for (; rounds < 50000 && !engine.balanced(); ++rounds) {
    const std::string at = what + " round " + std::to_string(rounds);
    const std::size_t moved = engine.step(a);
    ASSERT_EQ(moved, naive.step(walk, b)) << at;
    ASSERT_EQ(a.state_hash(), b.state_hash()) << at;
    ASSERT_NO_FATAL_FAILURE(naive.expect_matches(engine, at));
  }
  EXPECT_TRUE(engine.balanced()) << what;
  EXPECT_GT(rounds, 3) << what;
}

/// `light` bounded-Pareto weights and `heavy` tasks of weight `w_heavy`,
/// the heavy ones first (the bottom of an all-on-one stack) or last (its
/// top).
TaskSet pareto_with_heavies(std::size_t light, std::size_t heavy,
                            double w_heavy, bool heavy_first,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w =
      tlb::tasks::bounded_pareto(light, 2.5, 4.0, rng).weights();
  w.insert(heavy_first ? w.begin() : w.end(), heavy, w_heavy);
  return TaskSet(std::move(w));
}

TEST(MixedProtocolTest, MatchesNaiveRoundBitForBit) {
  for (const double beta : {0.0, 0.5, 1.0}) {
    const std::string b = "beta=" + std::to_string(beta) + " ";
    // Torus, lazy walk, uniform threshold, heavy tasks at the bottom.
    {
      const Graph g = tlb::graph::grid2d(8, 8, /*torus=*/true);
      const TaskSet ts = pareto_with_heavies(400, 12, 9.0, true, 31);
      MixedProtocolConfig cfg = make_config(
          threshold_value(ThresholdKind::kAboveAverage, ts, 64, 0.25), beta);
      expect_engine_matches_naive_rounds(g, ts, cfg, all_on_one(ts), 41,
                                         b + "torus/lazy/heavy-bottom");
    }
    // Erdős–Rényi, max-degree walk: irregular degrees, so the walk's
    // self-loop mass differs per node; heavy tasks at the top.
    {
      Rng grng(32);
      const Graph g = tlb::graph::erdos_renyi_connected(48, 0.12, grng);
      const TaskSet ts = pareto_with_heavies(300, 10, 7.5, false, 33);
      MixedProtocolConfig cfg = make_config(
          threshold_value(ThresholdKind::kAboveAverage, ts, 48, 0.3), beta);
      cfg.walk = WalkKind::kMaxDegree;
      expect_engine_matches_naive_rounds(g, ts, cfg, all_on_one(ts), 42,
                                         b + "er/max-degree/heavy-top");
    }
    // Random regular graph, max-degree walk, speed-proportional
    // per-resource thresholds, tasks starting on random resources.
    {
      Rng grng(34);
      const Graph g = tlb::graph::random_regular(40, 4, grng);
      const TaskSet ts = pareto_with_heavies(320, 8, 8.0, false, 35);
      MixedProtocolConfig cfg = make_config(1.0, beta);
      cfg.walk = WalkKind::kMaxDegree;
      cfg.threshold = speed_proportional_thresholds(
          ts, two_class_speeds(40, 6, 3.0), ThresholdKind::kAboveAverage,
          0.3);
      Rng prng(36);
      Placement start(ts.size());
      for (Node& r : start) r = static_cast<Node>(prng.uniform_below(5));
      expect_engine_matches_naive_rounds(g, ts, cfg, start, 43,
                                         b + "regular/per-resource");
    }
  }
}

}  // namespace
