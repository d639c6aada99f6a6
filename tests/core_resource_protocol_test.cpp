// Tests for Algorithm 5.1 (resource-controlled migration): termination,
// weight conservation, Observation 4 (non-increasing potential), the
// active == overloaded invariant, and behaviour across graph families and
// threshold regimes.
#include "tlb/core/resource_protocol.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "tlb/core/hetero.hpp"
#include "tlb/core/potential.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Graph;
using tlb::randomwalk::TransitionModel;
using tlb::randomwalk::WalkKind;
using tlb::tasks::all_on_one;
using tlb::tasks::Placement;
using tlb::tasks::TaskId;
using tlb::tasks::TaskSet;
using tlb::util::Rng;
using tlb::engine::reset_and_run;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ResourceProtocolConfig make_config(double threshold,
                                   tlb::randomwalk::WalkKind walk =
                                       tlb::randomwalk::WalkKind::kMaxDegree) {
  ResourceProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.walk = walk;
  return cfg;
}

const tlb::engine::DriveOptions kDrive{.max_rounds = 200000};

TEST(ResourceProtocolTest, TerminatesOnCompleteGraph) {
  const Graph g = tlb::graph::complete(32);
  const TaskSet ts = tlb::tasks::uniform_unit(320);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.5);
  ResourceControlledEngine engine(g, ts, make_config(T));
  Rng rng(1);
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
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
  const RunResult r = reset_and_run(engine, spread, rng, kDrive);
  EXPECT_TRUE(r.balanced);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(ResourceProtocolTest, WeightConservedEveryRound) {
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::two_point(60, 4, 8.0);
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, g.num_nodes(), 0.3);
  ResourceControlledEngine engine(
      g, ts, make_config(T, tlb::randomwalk::WalkKind::kLazy));
  Rng rng(3);
  // SystemState invariants each round.
  const RunResult r =
      reset_and_run(engine, all_on_one(ts), rng,
                    {.max_rounds = 200000, .paranoid_checks = true});
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
  const RunResult r = tlb::engine::drive(engine, rng, kDrive, &trace);
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
  const RunResult r = reset_and_run(engine, all_on_one(ts), rng, kDrive);
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
    per.threshold = std::vector<double>{2.0, bad, 2.0, 2.0};
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
  const RunResult ra = reset_and_run(a, all_on_one(ts), rng_a, kDrive);
  const RunResult rb = reset_and_run(b, all_on_one(ts), rng_b, kDrive);
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.migrations, rb.migrations);
}

/// Algorithm 5.1, naively: one std::vector stack per resource with the
/// paper's acceptance rule, and a round that (1) evicts every unaccepted
/// suffix in ascending resource order, (2) takes one walk.step per evictee
/// in eviction order and (3) pushes the evictees one by one, in that order,
/// with the acceptance test.
class NaiveResourceRounds {
 public:
  NaiveResourceRounds(const TaskSet& ts, std::vector<double> thresholds,
                      const Placement& placement)
      : ts_(&ts), thresholds_(std::move(thresholds)),
        stacks_(thresholds_.size()) {
    for (TaskId id = 0; id < placement.size(); ++id) push(placement[id], id);
  }

  std::size_t step(const TransitionModel& walk, Rng& rng) {
    std::vector<TaskId> evicted;
    std::vector<Node> dst;
    for (Node r = 0; r < stacks_.size(); ++r) {
      Stack& s = stacks_[r];
      if (s.accepted == s.ids.size()) continue;
      for (std::size_t i = s.accepted; i < s.ids.size(); ++i) {
        evicted.push_back(s.ids[i]);
        dst.push_back(r);
      }
      s.ids.resize(s.accepted);
      s.load = s.accepted_load;
    }
    for (Node& d : dst) d = walk.step(d, rng);
    for (std::size_t j = 0; j < evicted.size(); ++j) push(dst[j], evicted[j]);
    return evicted.size();
  }

  /// Expect `engine`'s state to equal this one bitwise: stacks bottom to
  /// top, loads, accepted prefixes and the potential.
  void expect_matches(const ResourceControlledEngine& engine,
                      const std::string& at) const {
    const tlb::mem::TaskArena& arena = engine.state().arena();
    double phi = 0.0;
    for (Node r = 0; r < stacks_.size(); ++r) {
      const Stack& s = stacks_[r];
      ASSERT_EQ(arena.tasks(r), s.ids) << at << " resource " << r;
      ASSERT_EQ(arena.load(r), s.load) << at << " resource " << r;
      ASSERT_EQ(arena.accepted_count(r), s.accepted) << at << " resource " << r;
      ASSERT_EQ(arena.accepted_load(r), s.accepted_load)
          << at << " resource " << r;
      phi += s.load - s.accepted_load;
    }
    ASSERT_EQ(engine.potential(), phi) << at;
  }

 private:
  struct Stack {
    std::vector<TaskId> ids;
    double load = 0.0;
    double accepted_load = 0.0;
    std::size_t accepted = 0;
  };

  void push(Node r, TaskId id) {
    Stack& s = stacks_[r];
    const double w = ts_->weight(id);
    if (s.accepted == s.ids.size() && s.load + w <= thresholds_[r]) {
      ++s.accepted;
      s.accepted_load += w;
    }
    s.ids.push_back(id);
    s.load += w;
  }

  const TaskSet* ts_;
  std::vector<double> thresholds_;
  std::vector<Stack> stacks_;
};

/// Drive the engine and the naive rounds from one seed, round by round,
/// until balanced: equal state, migrations and generator position after
/// every round, and the engine's O(#overloaded) potential bitwise equal to
/// core::resource_potential's O(n) sum.
void expect_engine_matches_naive_rounds(const Graph& g, const TaskSet& ts,
                                        const ResourceProtocolConfig& cfg,
                                        const Placement& start,
                                        std::uint64_t seed,
                                        const std::string& what) {
  ResourceControlledEngine engine(g, ts, cfg);
  engine.reset(start);
  std::vector<double> thresholds(g.num_nodes());
  for (Node r = 0; r < g.num_nodes(); ++r) {
    thresholds[r] = engine.state().thresholds()[r];
  }
  NaiveResourceRounds naive(ts, thresholds, start);
  const TransitionModel walk(g, cfg.walk);
  Rng a(seed), b(seed);
  naive.expect_matches(engine, what + " start");
  int rounds = 0;
  for (; rounds < 5000 && !engine.balanced(); ++rounds) {
    const std::string at = what + " round " + std::to_string(rounds);
    const std::size_t moved = engine.step(a);
    ASSERT_EQ(moved, naive.step(walk, b)) << at;
    ASSERT_EQ(a.state_hash(), b.state_hash()) << at;
    ASSERT_NO_FATAL_FAILURE(naive.expect_matches(engine, at));
    ASSERT_EQ(engine.potential(), resource_potential(engine.state())) << at;
  }
  EXPECT_TRUE(engine.balanced()) << what;
  EXPECT_GT(rounds, 3) << what;
}

TEST(ResourceProtocolTest, MatchesNaiveAlgorithm51BitForBit) {
  // Erdős–Rényi, max-degree walk: irregular degrees, so the move cut
  // differs per origin.
  {
    Rng grng(11);
    const Graph g = tlb::graph::erdos_renyi_connected(96, 0.06, grng);
    Rng wrng(12);
    const TaskSet ts = tlb::tasks::bounded_pareto(8 * 96, 2.5, 16.0, wrng);
    const double T = threshold_value(ThresholdKind::kAboveAverage, ts,
                                     g.num_nodes(), 0.25);
    expect_engine_matches_naive_rounds(
        g, ts, make_config(T, WalkKind::kMaxDegree), all_on_one(ts), 21,
        "erdos-renyi/max-degree");
  }
  // Hypercube, lazy walk.
  {
    const Graph g = tlb::graph::hypercube(6);
    const TaskSet ts = tlb::tasks::two_point(400, 40, 8.0);
    const double T =
        threshold_value(ThresholdKind::kTightResource, ts, g.num_nodes());
    expect_engine_matches_naive_rounds(g, ts, make_config(T, WalkKind::kLazy),
                                       all_on_one(ts), 22, "hypercube/lazy");
  }
  // Torus, lazy walk, speed-proportional per-resource thresholds, tasks
  // starting on random resources.
  {
    const Graph g = tlb::graph::grid2d(8, 8, /*torus=*/true);
    const TaskSet ts = tlb::tasks::two_point(300, 30, 6.0);
    const SpeedProfile speeds = two_class_speeds(g.num_nodes(), 8, 4.0);
    ResourceProtocolConfig cfg = make_config(1.0, WalkKind::kLazy);
    cfg.threshold = speed_proportional_thresholds(
        ts, speeds, ThresholdKind::kAboveAverage, 0.3);
    Rng prng(13);
    Placement start(ts.size());
    for (Node& r : start) r = static_cast<Node>(prng.uniform_below(16));
    expect_engine_matches_naive_rounds(g, ts, cfg, start, 23,
                                       "torus/per-resource");
  }
}

}  // namespace
