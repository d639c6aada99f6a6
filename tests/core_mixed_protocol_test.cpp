// Tests for the mixed resource/user protocol (the paper's proposed future
// work), which the exact user engine's graph constructor runs at blend β:
// the β endpoints recover the pure protocols, intermediate blends
// terminate, the height-based eviction matches the acceptance-based one,
// and every round of the exact engine, on graphs and on K_n, equals a
// naive reference round bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tlb/core/departure.hpp"
#include "tlb/core/hetero.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/mem/task_arena.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/stats.hpp"

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

UserProtocolConfig make_config(double threshold, double beta,
                               double alpha = 1.0) {
  UserProtocolConfig cfg;
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
    UserControlledEngine engine(g, ts, make_config(T, beta));
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
    UserControlledEngine engine(g, ts, make_config(T, 1.0));
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

/// The largest single-round migration count of a drive.
class MaxBurst final : public tlb::engine::RoundObserver {
 public:
  void on_round_end(const tlb::engine::BalancerView&, long,
                    std::size_t migrations) override {
    max_ = std::max(max_, migrations);
  }
  std::size_t max() const noexcept { return max_; }

 private:
  std::size_t max_ = 0;
};

TEST(MixedProtocolTest, MoreResourceModeIsFasterButBurstier) {
  // Higher β drains overload in fewer rounds but with larger single-round
  // migration bursts. On 8 heavies of weight 8 among units the law
  // separates by several standard deviations: these seeds read 104.2 mean
  // rounds (sd 15.5) at β = 0.1 against 41.6 (sd 8.3) at β = 1, and mean
  // max bursts of 185.6 against 286. On unit tasks alone the blend barely
  // moves the time (2000-trial means of 73.9–74.7 rounds at either β), so
  // a rounds comparison there is a coin toss.
  const Graph g = tlb::graph::grid2d(6, 6, /*torus=*/true);
  const TaskSet ts = tlb::tasks::two_point(8 * 36 - 8, 8, 8.0);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.25);
  struct Blend {
    tlb::util::Welford rounds, burst;
  };
  auto stats_for = [&](double beta, std::uint64_t seed) {
    Blend out;
    for (std::uint64_t t = 0; t < 30; ++t) {
      UserControlledEngine engine(g, ts, make_config(T, beta));
      MaxBurst burst;
      Rng rng(tlb::util::derive_seed(seed, t));
      const RunResult r =
          reset_and_run(engine, all_on_one(ts), rng, kDrive, &burst);
      EXPECT_TRUE(r.balanced) << "beta=" << beta;
      out.rounds.add(static_cast<double>(r.rounds));
      out.burst.add(static_cast<double>(burst.max()));
    }
    return out;
  };
  const Blend slow_blend = stats_for(0.1, 0xb01);
  const Blend fast_blend = stats_for(1.0, 0xb02);
  EXPECT_LT(fast_blend.rounds.mean(), slow_blend.rounds.mean());
  EXPECT_GT(fast_blend.burst.mean(), slow_blend.burst.mean());
}

TEST(MixedProtocolTest, ResourceModeLeavesNoFittingStackOverloaded) {
  // Round 1 evicts the 5.0 from resource 0 and keeps {1.1, 2.2}, which fit
  // T_0 = fl(1.1 + 2.2) exactly. A load of 8.3 - 5.0 would read
  // 3.3000000000000007 > T_0, and resource mode would find nothing to
  // evict, round after round.
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts({1.1, 2.2, 5.0});
  const double t0 = 1.1 + 2.2;
  UserProtocolConfig cfg = make_config(1.0, /*beta=*/1.0);
  cfg.threshold = std::vector<double>{t0, 100.0, 100.0, 100.0};
  cfg.walk = WalkKind::kMaxDegree;
  UserControlledEngine engine(g, ts, cfg);
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
  UserProtocolConfig cfg;
  cfg.threshold = thresholds;
  cfg.resource_probability = 0.5;
  UserControlledEngine engine(g, ts, cfg);
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
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(0.0, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, -0.1)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, 1.1)),
               std::invalid_argument);
  EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, 0.5, 0.0)),
               std::invalid_argument);
  // The grouped engine has no resource mode.
  EXPECT_THROW(GroupedUserEngine(ts, 4, make_config(5.0, 0.5)),
               std::invalid_argument);
  // Non-finite blend, threshold, per-resource thresholds and alpha. A NaN
  // blend must not pass as 0, the graph-user protocol.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {nan, inf, -inf}) {
    EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, x)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(UserControlledEngine(g, ts, make_config(x, 0.5)),
                 std::invalid_argument)
        << x;
    EXPECT_THROW(UserControlledEngine(g, ts, make_config(5.0, 0.5, x)),
                 std::invalid_argument)
        << x;
    UserProtocolConfig per = make_config(5.0, 0.5);
    per.threshold = std::vector<double>{5.0, x, 5.0, 5.0};
    EXPECT_THROW(UserControlledEngine(g, ts, per), std::invalid_argument)
        << x;
  }
}

/// Where a mover lands: one walk step on a graph, a uniform draw on K_n.
using Destination = std::function<Node(Node origin, Rng& rng)>;

/// The exact engine's round, naively: one std::vector stack per resource,
/// loads updated as the arena does (a push adds w, a departure subtracts
/// each leaver's weight in stack order, an eviction sets the load to the
/// kept prefix's height), and a round that
///   (1) draws the round seed from the caller's stream;
///   (2) lists {r : load_r > T_r} at round start, ascending, and when
///       β > 0 draws one blend coin per listed r, in list order, on the
///       caller's stream; resource mode evicts every task from the first
///       one that does not fit completely below T_r upward;
///   (3) numbers the tasks of the user-mode resources c = 0, 1, ... in list
///       order, bottom to top; with p_r = leave_probability(α, φ_r, w_max,
///       b_r), task c leaves iff p_r >= 1 (no draw), or p_r > 0 and the
///       next draw of Rng(derive_seed(round_seed, c / kCoinShardGrain)) is
///       below p_r·2^64;
///   (4) draws one destination per mover on the caller's stream, leavers
///       first, then the evictees;
///   (5) pushes the movers in that order.
class NaiveUserRounds {
 public:
  NaiveUserRounds(const TaskSet& ts, std::vector<double> thresholds,
                  double beta, double alpha, const Placement& placement)
      : ts_(&ts), thresholds_(std::move(thresholds)), beta_(beta),
        alpha_(alpha), stacks_(thresholds_.size()) {
    for (TaskId id = 0; id < placement.size(); ++id) push(placement[id], id);
  }

  std::size_t step(const Destination& destination, Rng& rng) {
    const std::uint64_t round_seed = rng();
    std::vector<Node> user_mode, resource_mode;
    for (Node r = 0; r < stacks_.size(); ++r) {
      if (stacks_[r].load <= thresholds_[r]) continue;
      const bool evict = beta_ > 0.0 && rng.bernoulli(beta_);
      (evict ? resource_mode : user_mode).push_back(r);
    }
    std::vector<TaskId> movers;
    std::vector<Node> dst;
    std::size_t c = 0;
    std::size_t shard = 0;
    Rng coins(tlb::util::derive_seed(round_seed, shard));
    for (const Node r : user_mode) {
      Stack& s = stacks_[r];
      const double phi = s.load - fitting_prefix(r).second;
      const double p =
          leave_probability(alpha_, phi, ts_->max_weight(), s.ids.size());
      std::vector<TaskId> kept;
      for (const TaskId id : s.ids) {
        if (c / UserControlledEngine::kCoinShardGrain != shard) {
          shard = c / UserControlledEngine::kCoinShardGrain;
          coins = Rng(tlb::util::derive_seed(round_seed, shard));
        }
        ++c;
        const bool leave =
            p >= 1.0 ||
            (p > 0.0 && coins() < static_cast<std::uint64_t>(p * 0x1.0p64));
        if (leave) {
          movers.push_back(id);
          dst.push_back(r);
          s.load -= ts_->weight(id);
        } else {
          kept.push_back(id);
        }
      }
      s.ids = std::move(kept);
    }
    for (const Node r : resource_mode) {
      Stack& s = stacks_[r];
      const auto [fit, fit_height] = fitting_prefix(r);
      for (std::size_t i = fit; i < s.ids.size(); ++i) {
        movers.push_back(s.ids[i]);
        dst.push_back(r);
      }
      s.ids.resize(fit);
      s.load = fit_height;
    }
    for (Node& d : dst) d = destination(d, rng);
    for (std::size_t j = 0; j < movers.size(); ++j) push(dst[j], movers[j]);
    return movers.size();
  }

  /// Expect `engine`'s state to equal this one bitwise: stacks bottom to
  /// top, and loads.
  void expect_matches(const UserControlledEngine& engine,
                      const std::string& at) const {
    const tlb::mem::TaskArena& arena = engine.state().arena();
    for (Node r = 0; r < stacks_.size(); ++r) {
      ASSERT_EQ(arena.tasks(r), stacks_[r].ids) << at << " resource " << r;
      ASSERT_EQ(arena.load(r), stacks_[r].load) << at << " resource " << r;
    }
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
};

/// Drive `engine` (fresh, with config `cfg`) and the naive rounds from one
/// seed, round by round, until balanced: equal state, migrations and
/// generator position after every round.
void expect_engine_matches_naive_rounds(UserControlledEngine& engine,
                                        const TaskSet& ts,
                                        const UserProtocolConfig& cfg,
                                        const Destination& destination,
                                        const Placement& start,
                                        std::uint64_t seed,
                                        const std::string& what) {
  engine.reset(start);
  const Node n = engine.state().num_resources();
  std::vector<double> thresholds(n);
  for (Node r = 0; r < n; ++r) {
    thresholds[r] = engine.state().thresholds()[r];
  }
  NaiveUserRounds naive(ts, thresholds, cfg.resource_probability, cfg.alpha,
                        start);
  Rng a(seed), b(seed);
  naive.expect_matches(engine, what + " start");
  int rounds = 0;
  for (; rounds < 50000 && !engine.balanced(); ++rounds) {
    const std::string at = what + " round " + std::to_string(rounds);
    const std::size_t moved = engine.step(a);
    ASSERT_EQ(moved, naive.step(destination, b)) << at;
    ASSERT_EQ(a.state_hash(), b.state_hash()) << at;
    ASSERT_NO_FATAL_FAILURE(naive.expect_matches(engine, at));
  }
  EXPECT_TRUE(engine.balanced()) << what;
  EXPECT_GT(rounds, 3) << what;
}

/// The graph engine against the naive rounds, its movers walking cfg.walk.
void expect_graph_engine_matches(const Graph& g, const TaskSet& ts,
                                 const UserProtocolConfig& cfg,
                                 const Placement& start, std::uint64_t seed,
                                 const std::string& what) {
  UserControlledEngine engine(g, ts, cfg);
  const TransitionModel walk(g, cfg.walk);
  expect_engine_matches_naive_rounds(
      engine, ts, cfg, [&walk](Node u, Rng& rng) { return walk.step(u, rng); },
      start, seed, what);
}

/// The K_n engine against the naive rounds: uniform destinations over all
/// n resources, or over the other n - 1 with exclude_self.
void expect_complete_engine_matches(Node n, const TaskSet& ts,
                                    const UserProtocolConfig& cfg,
                                    const Placement& start,
                                    std::uint64_t seed,
                                    const std::string& what) {
  UserControlledEngine engine(ts, n, cfg);
  expect_engine_matches_naive_rounds(
      engine, ts, cfg,
      [n, exclude = cfg.exclude_self](Node u, Rng& rng) {
        if (!exclude) return static_cast<Node>(rng.uniform_below(n));
        const auto d = static_cast<Node>(rng.uniform_below(n - 1));
        return d >= u ? d + 1 : d;
      },
      start, seed, what);
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
      const UserProtocolConfig cfg = make_config(
          threshold_value(ThresholdKind::kAboveAverage, ts, 64, 0.25), beta);
      expect_graph_engine_matches(g, ts, cfg, all_on_one(ts), 41,
                                  b + "torus/lazy/heavy-bottom");
    }
    // Erdős–Rényi, max-degree walk: irregular degrees, so the walk's
    // self-loop mass differs per node; heavy tasks at the top.
    {
      Rng grng(32);
      const Graph g = tlb::graph::erdos_renyi_connected(48, 0.12, grng);
      const TaskSet ts = pareto_with_heavies(300, 10, 7.5, false, 33);
      UserProtocolConfig cfg = make_config(
          threshold_value(ThresholdKind::kAboveAverage, ts, 48, 0.3), beta);
      cfg.walk = WalkKind::kMaxDegree;
      expect_graph_engine_matches(g, ts, cfg, all_on_one(ts), 42,
                                  b + "er/max-degree/heavy-top");
    }
    // Random regular graph, max-degree walk, speed-proportional
    // per-resource thresholds, tasks starting on random resources.
    {
      Rng grng(34);
      const Graph g = tlb::graph::random_regular(40, 4, grng);
      const TaskSet ts = pareto_with_heavies(320, 8, 8.0, false, 35);
      UserProtocolConfig cfg = make_config(1.0, beta);
      cfg.walk = WalkKind::kMaxDegree;
      cfg.threshold = speed_proportional_thresholds(
          ts, two_class_speeds(40, 6, 3.0), ThresholdKind::kAboveAverage,
          0.3);
      Rng prng(36);
      Placement start(ts.size());
      for (Node& r : start) r = static_cast<Node>(prng.uniform_below(5));
      expect_graph_engine_matches(g, ts, cfg, start, 43,
                                  b + "regular/per-resource");
    }
  }
}

TEST(ExactEngineReferenceTest, CompleteGraphMatchesNaiveRoundBitForBit) {
  const Node n = 48;
  for (const bool exclude_self : {false, true}) {
    for (const bool heavy_first : {true, false}) {
      const std::string what = std::string("K_n exclude_self=") +
                               (exclude_self ? "1" : "0") +
                               (heavy_first ? " heavy-bottom" : " heavy-top");
      const TaskSet ts = pareto_with_heavies(380, 10, 8.5, heavy_first, 51);
      // Uniform threshold, all-on-one start.
      UserProtocolConfig cfg;
      cfg.threshold =
          threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.25);
      cfg.exclude_self = exclude_self;
      expect_complete_engine_matches(n, ts, cfg, all_on_one(ts), 52,
                                     what + " uniform");
      // Speed-proportional per-resource thresholds, random start on a few
      // resources.
      cfg.threshold = speed_proportional_thresholds(
          ts, two_class_speeds(n, 8, 3.0), ThresholdKind::kAboveAverage, 0.3);
      Rng prng(53);
      Placement start(ts.size());
      for (Node& r : start) r = static_cast<Node>(prng.uniform_below(4));
      expect_complete_engine_matches(n, ts, cfg, start, 54,
                                     what + " per-resource");
    }
  }
}

TEST(ExactEngineReferenceTest, AllOnOneAcrossShardsMatchesNaiveRound) {
  // More than 2·kCoinShardGrain tasks on one resource: round 1's stack
  // spans three coin shards, so the bulk merge joins a stack across shard
  // boundaries, and the pool runs the shards at four threads.
  const Node n = 256;
  const TaskSet ts = pareto_with_heavies(20000, 16, 9.0, false, 61);
  ASSERT_GT(ts.size(), 2 * UserControlledEngine::kCoinShardGrain);
  for (const std::size_t threads : {1, 4}) {
    UserProtocolConfig cfg;
    cfg.threshold = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.25);
    cfg.options.threads = threads;
    expect_complete_engine_matches(
        n, ts, cfg, all_on_one(ts), 62,
        "all-on-one threads=" + std::to_string(threads));
  }
}

}  // namespace
