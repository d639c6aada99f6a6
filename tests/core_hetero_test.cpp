// Tests for the non-uniform threshold extension (the paper's future-work
// item): speed profiles, speed-proportional threshold builders, feasibility,
// the protocol engines running with per-resource thresholds, and the one
// threshold representation (core::Thresholds) every engine shares.
#include "tlb/core/hetero.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/dsan/fingerprint.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/graph/builders.hpp"
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

TEST(SpeedProfileTest, Builders) {
  EXPECT_EQ(uniform_speeds(5), (SpeedProfile{1, 1, 1, 1, 1}));
  const auto two = two_class_speeds(4, 2, 3.0);
  EXPECT_EQ(two, (SpeedProfile{3.0, 3.0, 1.0, 1.0}));
  EXPECT_THROW(two_class_speeds(4, 5, 2.0), std::invalid_argument);
  EXPECT_THROW(two_class_speeds(4, 1, 0.0), std::invalid_argument);

  Rng rng(1);
  const auto rand = random_speeds(100, 0.5, 2.0, rng);
  for (double s : rand) {
    EXPECT_GE(s, 0.5);
    EXPECT_LE(s, 2.0);
  }
  EXPECT_THROW(random_speeds(10, 0.0, 1.0, rng), std::invalid_argument);
}

TEST(HeteroThresholdTest, ProportionalFormulas) {
  const TaskSet ts({1.0, 1.0, 6.0});  // W = 8, w_max = 6
  const SpeedProfile speeds = {1.0, 3.0};  // shares: 2 and 6
  const auto above = speed_proportional_thresholds(
      ts, speeds, ThresholdKind::kAboveAverage, 0.5);
  EXPECT_NEAR(above[0], 1.5 * 2.0 + 6.0, 1e-12);
  EXPECT_NEAR(above[1], 1.5 * 6.0 + 6.0, 1e-12);

  const auto tight_r = speed_proportional_thresholds(
      ts, speeds, ThresholdKind::kTightResource);
  EXPECT_NEAR(tight_r[0], 2.0 + 12.0, 1e-12);
  EXPECT_NEAR(tight_r[1], 6.0 + 12.0, 1e-12);

  const auto tight_u =
      speed_proportional_thresholds(ts, speeds, ThresholdKind::kTightUser);
  EXPECT_NEAR(tight_u[0], 2.0 + 6.0, 1e-12);
}

TEST(HeteroThresholdTest, UniformSpeedsReproduceUniformThreshold) {
  const TaskSet ts = tlb::tasks::two_point(50, 5, 8.0);
  const Node n = 10;
  const auto vec = speed_proportional_thresholds(
      ts, uniform_speeds(n), ThresholdKind::kAboveAverage, 0.2);
  const double scalar =
      threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  for (double t : vec) EXPECT_NEAR(t, scalar, 1e-9);
}

TEST(HeteroThresholdTest, ValidationErrors) {
  const TaskSet ts({1.0});
  EXPECT_THROW(
      speed_proportional_thresholds(ts, {}, ThresholdKind::kTightUser),
      std::invalid_argument);
  EXPECT_THROW(speed_proportional_thresholds(ts, {1.0, -1.0},
                                             ThresholdKind::kTightUser),
               std::invalid_argument);
  EXPECT_THROW(speed_proportional_thresholds(ts, {1.0},
                                             ThresholdKind::kAboveAverage,
                                             0.0),
               std::invalid_argument);
}

TEST(HeteroThresholdTest, Feasibility) {
  const TaskSet ts = tlb::tasks::uniform_unit(100);  // W = 100, w_max = 1
  // 10 resources with threshold 11: capacity 10*(11-1) = 100 >= 100.
  EXPECT_TRUE(thresholds_feasible(ts, std::vector<double>(10, 11.0)));
  // Threshold 10: capacity 90 < 100.
  EXPECT_FALSE(thresholds_feasible(ts, std::vector<double>(10, 10.0)));
  // Speed-proportional above-average thresholds are always feasible.
  Rng rng(2);
  const auto speeds = random_speeds(10, 0.5, 4.0, rng);
  EXPECT_TRUE(thresholds_feasible(
      ts, speed_proportional_thresholds(ts, speeds,
                                        ThresholdKind::kAboveAverage, 0.2)));
}

TEST(HeteroResourceEngineTest, BalancesToPerResourceThresholds) {
  Rng rng(3);
  const auto g = tlb::graph::complete(20);
  const TaskSet ts = tlb::tasks::two_point(150, 4, 6.0);
  const auto speeds = two_class_speeds(20, 5, 4.0);
  const auto thresholds = speed_proportional_thresholds(
      ts, speeds, ThresholdKind::kAboveAverage, 0.3);

  ResourceProtocolConfig cfg;
  cfg.threshold = thresholds;
  ResourceControlledEngine engine(g, ts, cfg);
  const auto r = reset_and_run(engine, all_on_one(ts), rng,
                               {.max_rounds = 100000});
  ASSERT_TRUE(r.balanced);
  for (Node v = 0; v < 20; ++v) {
    EXPECT_LE(engine.state().load(v), thresholds[v] + 1e-9) << "node " << v;
  }
  // Fast nodes must be allowed more than slow nodes on average; check the
  // configured thresholds reflect the 4x ratio.
  EXPECT_GT(engine.state().thresholds()[0], engine.state().thresholds()[19]);
}

/// The engines that take a core::Thresholds.
enum class EngineKind { kExact, kGrouped, kResource, kGraphUser, kMixed };

std::string engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kExact: return "exact";
    case EngineKind::kGrouped: return "grouped";
    case EngineKind::kResource: return "resource";
    case EngineKind::kGraphUser: return "graph_user";
    case EngineKind::kMixed: return "mixed";
  }
  return "?";
}

/// Builds an engine of `kind` over `g` (the user engines on the complete
/// graph take only its node count) against `thresholds` and hands it to
/// `fn`. The graph engines walk lazily.
template <class Fn>
void with_engine(EngineKind kind, const Graph& g, const TaskSet& ts,
                 const Thresholds& thresholds, Fn&& fn) {
  const auto lazy = tlb::randomwalk::WalkKind::kLazy;
  switch (kind) {
    case EngineKind::kExact: {
      UserProtocolConfig cfg;
      cfg.threshold = thresholds;
      UserControlledEngine engine(ts, g.num_nodes(), cfg);
      fn(engine);
      return;
    }
    case EngineKind::kGrouped: {
      UserProtocolConfig cfg;
      cfg.threshold = thresholds;
      GroupedUserEngine engine(ts, g.num_nodes(), cfg);
      fn(engine);
      return;
    }
    case EngineKind::kResource: {
      ResourceProtocolConfig cfg;
      cfg.threshold = thresholds;
      cfg.walk = lazy;
      ResourceControlledEngine engine(g, ts, cfg);
      fn(engine);
      return;
    }
    case EngineKind::kGraphUser: {
      UserProtocolConfig cfg;
      cfg.threshold = thresholds;
      cfg.walk = lazy;
      UserControlledEngine engine(g, ts, cfg);
      fn(engine);
      return;
    }
    case EngineKind::kMixed: {
      UserProtocolConfig cfg;
      cfg.threshold = thresholds;
      cfg.resource_probability = 0.5;
      cfg.walk = lazy;
      UserControlledEngine engine(g, ts, cfg);
      fn(engine);
      return;
    }
  }
}

/// Everything a run exposes: the per-round traces, the dsan state and work
/// digests after every round, the final loads' bit patterns and the
/// generator's end state.
struct Recorded {
  std::vector<double> potential;
  std::vector<std::uint32_t> overloaded;
  std::vector<std::uint64_t> state_digests, work_digests;
  std::vector<std::uint64_t> load_bits;
  std::uint64_t rng_hash = 0;
  long rounds = 0;
};

/// Collects the dsan fingerprint after every round and the final loads.
class FingerprintLog final : public tlb::engine::RoundObserver {
 public:
  explicit FingerprintLog(Recorded& out) : out_(&out) {}
  void on_round_end(const tlb::engine::BalancerView& view, long,
                    std::size_t) override {
    record(view);
  }
  void on_finish(const tlb::engine::BalancerView& view) override {
    record(view);
    std::vector<double> loads;
    ASSERT_TRUE(view.collect_loads(loads));
    for (const double x : loads) {
      out_->load_bits.push_back(std::bit_cast<std::uint64_t>(x));
    }
  }

 private:
  void record(const tlb::engine::BalancerView& view) {
    tlb::dsan::Digest state, work;
    view.collect_fingerprint(state, work);
    out_->state_digests.push_back(state.value());
    out_->work_digests.push_back(work.value());
  }
  Recorded* out_;
};

Recorded record_run(EngineKind kind, const Graph& g, const TaskSet& ts,
                    const Thresholds& thresholds) {
  Recorded out;
  with_engine(kind, g, ts, thresholds, [&](auto& engine) {
    tlb::engine::PotentialTrace potential;
    tlb::engine::OverloadedTrace overloaded;
    FingerprintLog fingerprints(out);
    tlb::engine::ObserverList observers({&potential, &overloaded,
                                         &fingerprints});
    tlb::engine::DriveOptions opt;
    opt.max_rounds = 100000;
    Rng rng(29);
    engine.reset(all_on_one(ts));
    out.rounds = tlb::engine::drive(engine, rng, opt, &observers).rounds;
    out.potential = potential.take();
    out.overloaded = overloaded.take();
    out.rng_hash = rng.state_hash();
  });
  return out;
}

class UniformVectorTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(UniformVectorTest, MatchesScalarBitForBit) {
  // One seed, a scalar T against n copies of T: the same run, round by
  // round, down to the tracker's work counters.
  const Graph g = tlb::graph::grid2d(4, 4);
  const TaskSet ts = tlb::tasks::two_point(90, 6, 5.0);
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, 16, 0.3);
  const Recorded scalar = record_run(GetParam(), g, ts, T);
  const Recorded vector =
      record_run(GetParam(), g, ts, std::vector<double>(16, T));
  EXPECT_GT(scalar.rounds, 1);
  EXPECT_EQ(scalar.rounds, vector.rounds);
  EXPECT_EQ(scalar.potential, vector.potential);
  EXPECT_EQ(scalar.overloaded, vector.overloaded);
  EXPECT_EQ(scalar.state_digests, vector.state_digests);
  EXPECT_EQ(scalar.work_digests, vector.work_digests);
  EXPECT_EQ(scalar.load_bits, vector.load_bits);
  EXPECT_EQ(scalar.rng_hash, vector.rng_hash);
}

TEST_P(UniformVectorTest, RejectsInvalidThresholds) {
  const Graph g = tlb::graph::complete(4);
  const TaskSet ts = tlb::tasks::uniform_unit(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto build = [&](const Thresholds& thresholds) {
    with_engine(GetParam(), g, ts, thresholds, [](auto&) {});
  };
  EXPECT_NO_THROW(build(5.0));
  EXPECT_NO_THROW(build(std::vector<double>(4, 5.0)));
  EXPECT_THROW(build(std::vector<double>{5.0, 5.0}), std::invalid_argument);
  EXPECT_THROW(build(std::vector<double>{5.0, nan, 5.0, 5.0}),
               std::invalid_argument);
  EXPECT_THROW(build(0.0), std::invalid_argument);
  EXPECT_THROW(build(-1.0), std::invalid_argument);
  EXPECT_THROW(build(Thresholds()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    HeteroEngines, UniformVectorTest,
    ::testing::Values(EngineKind::kExact, EngineKind::kGrouped,
                      EngineKind::kResource, EngineKind::kGraphUser,
                      EngineKind::kMixed),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return engine_name(info.param);
    });

TEST(HeteroUserEngineTest, BothEnginesBalanceToPerResourceThresholds) {
  const Node n = 30;
  const TaskSet ts = tlb::tasks::two_point(200, 4, 10.0);
  Rng speed_rng(5);
  const auto speeds = random_speeds(n, 0.5, 2.0, speed_rng);
  const auto thresholds = speed_proportional_thresholds(
      ts, speeds, ThresholdKind::kAboveAverage, 0.4);
  ASSERT_TRUE(thresholds_feasible(ts, thresholds));

  UserProtocolConfig cfg;
  cfg.threshold = thresholds;

  {
    Rng rng(8);
    UserControlledEngine engine(ts, n, cfg);
    const auto r = reset_and_run(engine, all_on_one(ts), rng,
                                 {.max_rounds = 200000});
    ASSERT_TRUE(r.balanced);
    for (Node v = 0; v < n; ++v) {
      EXPECT_LE(engine.state().load(v), thresholds[v] + 1e-9);
    }
  }
  {
    Rng rng(9);
    GroupedUserEngine engine(ts, n, cfg);
    const auto r = reset_and_run(engine, all_on_one(ts), rng,
                                 {.max_rounds = 200000});
    ASSERT_TRUE(r.balanced);
    for (Node v = 0; v < n; ++v) {
      EXPECT_LE(engine.load(v), thresholds[v] + 1e-9);
    }
  }
}

TEST(HeteroUserEngineTest, FastResourcesCarryMoreLoad) {
  // With 4x-speed resources, the balanced allocation should visibly skew
  // toward the fast class.
  const Node n = 40;
  const Node fast = 10;
  const TaskSet ts = tlb::tasks::uniform_unit(800);
  const auto speeds = two_class_speeds(n, fast, 4.0);
  const auto thresholds = speed_proportional_thresholds(
      ts, speeds, ThresholdKind::kAboveAverage, 0.2);

  UserProtocolConfig cfg;
  cfg.threshold = thresholds;
  Rng rng(11);
  GroupedUserEngine engine(ts, n, cfg);
  const auto r = reset_and_run(engine, all_on_one(ts), rng,
                               {.max_rounds = 200000});
  ASSERT_TRUE(r.balanced);

  double fast_load = 0.0, slow_load = 0.0;
  for (Node v = 0; v < n; ++v) {
    (v < fast ? fast_load : slow_load) += engine.load(v);
  }
  const double fast_avg = fast_load / fast;
  const double slow_avg = slow_load / (n - fast);
  EXPECT_GT(fast_avg, 1.5 * slow_avg)
      << "fast avg " << fast_avg << " slow avg " << slow_avg;
}

}  // namespace
