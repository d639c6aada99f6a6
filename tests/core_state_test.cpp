// Tests for SystemState and the potential functions, including a static
// check of Lemma 1's pigeonhole bound.
#include "tlb/core/system_state.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "tlb/core/potential.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/tasks/weights.hpp"

namespace {

using namespace tlb::core;
using tlb::tasks::all_on_one;
using tlb::tasks::Placement;
using tlb::tasks::TaskSet;
using tlb::tasks::uniform_unit;
using tlb::util::Rng;

TEST(SystemStateTest, PlaceAndQuery) {
  const TaskSet ts({1.0, 2.0, 3.0});
  SystemState state(ts, 2, 5.0);
  state.place({0, 1, 0});
  EXPECT_DOUBLE_EQ(state.load(0), 4.0);
  EXPECT_DOUBLE_EQ(state.load(1), 2.0);
  EXPECT_DOUBLE_EQ(state.max_load(), 4.0);
  EXPECT_DOUBLE_EQ(state.total_load(), 6.0);
  EXPECT_EQ(state.loads(), (std::vector<double>{4.0, 2.0}));
}

TEST(SystemStateTest, BalancedAndOverloadedCount) {
  const TaskSet ts({5.0, 5.0});
  SystemState at(ts, 2, 5.0);
  at.place({0, 1});
  EXPECT_TRUE(at.balanced());
  EXPECT_EQ(at.overloaded_count(), 0u);
  SystemState below(ts, 2, 4.9);
  below.place({0, 1});
  EXPECT_FALSE(below.balanced());
  EXPECT_EQ(below.overloaded_count(), 2u);
}

TEST(SystemStateTest, PlaceRejectsBadInput) {
  const TaskSet ts({1.0, 1.0});
  SystemState state(ts, 2, 1.0);
  EXPECT_THROW(state.place({0}), std::invalid_argument);
  EXPECT_THROW(state.place({0, 5}), std::invalid_argument);
}

TEST(SystemStateTest, ConstructorRejectsBadThresholds) {
  const TaskSet ts = uniform_unit(4);
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0}) {
    EXPECT_THROW(SystemState(ts, 2, x), std::invalid_argument) << x;
    EXPECT_THROW(SystemState(ts, 2, std::vector<double>{1.0, x}),
                 std::invalid_argument)
        << x;
  }
  // Unset, and per-resource of the wrong size.
  EXPECT_THROW(SystemState(ts, 2, Thresholds()), std::invalid_argument);
  EXPECT_THROW(SystemState(ts, 2, std::vector<double>{1.0}),
               std::invalid_argument);
  // The error names the owner.
  try {
    SystemState(ts, 2, 0.0, "SomeEngine");
    ADD_FAILURE() << "accepted a zero threshold";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("SomeEngine: ", 0), 0u) << e.what();
  }
}

TEST(SystemStateTest, InvariantsHoldAfterPlace) {
  const TaskSet ts = uniform_unit(100);
  SystemState state(ts, 10, 12.0);
  Rng rng(3);
  Placement p(100);
  for (auto& r : p) r = static_cast<Node>(rng.uniform_below(10));
  state.place(p);
  EXPECT_NO_THROW(state.check_invariants());
}

TEST(SystemStateTest, ResourcePotentialCountsPendingWeight) {
  // T = 10; stack on resource 0: 8 accepted, 8 pending, 8 pending.
  const TaskSet ts({8.0, 8.0, 8.0});
  SystemState state(ts, 2, 10.0);
  state.place_accepting({0, 0, 0});
  EXPECT_DOUBLE_EQ(resource_potential(state), 16.0);
}

TEST(SystemStateTest, ResourcePotentialZeroWhenBalanced) {
  const TaskSet ts({4.0, 4.0});
  SystemState state(ts, 2, 10.0);
  state.place_accepting({0, 1});
  EXPECT_DOUBLE_EQ(resource_potential(state), 0.0);
  EXPECT_TRUE(state.balanced());
}

TEST(SystemStateTest, BalancedIffResourcePotentialZero) {
  // The equivalence the run loop relies on.
  const TaskSet ts({6.0, 6.0, 6.0, 6.0});
  SystemState over(ts, 2, 10.0);
  over.place_accepting({0, 0, 0, 1});
  EXPECT_FALSE(over.balanced());
  EXPECT_GT(resource_potential(over), 0.0);

  SystemState even(ts, 4, 10.0);
  even.place_accepting({0, 1, 2, 3});
  EXPECT_TRUE(even.balanced());
  EXPECT_DOUBLE_EQ(resource_potential(even), 0.0);
}

TEST(SystemStateTest, UserPotentialMatchesPerStackPhi) {
  const TaskSet ts({6.0, 6.0, 6.0, 1.0});
  const double T = 10.0;
  SystemState state(ts, 2, T);
  state.place({0, 0, 0, 1});
  EXPECT_DOUBLE_EQ(user_potential(state),
                   state.stack(0).phi(T) + state.stack(1).phi(T));
  EXPECT_DOUBLE_EQ(user_potential(state), 12.0);
}

TEST(Lemma1Test, StaticPigeonholeBound) {
  // For any allocation and T = (1+ε)W/n + w_max, at least ε/(1+ε) of the
  // resources have load <= T - w_max. Exercise several adversarial layouts.
  const double eps = 0.2;
  const std::size_t m = 500;
  const TaskSet ts = uniform_unit(m);
  const Node n = 50;
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, eps);

  const std::vector<Placement> layouts = {
      all_on_one(ts, 0),
      [&] {  // everything spread as evenly as possible
        Placement p(m);
        for (std::size_t i = 0; i < m; ++i) p[i] = static_cast<Node>(i % n);
        return p;
      }(),
      [&] {  // halves
        Placement p(m);
        for (std::size_t i = 0; i < m; ++i) p[i] = static_cast<Node>(i % 2);
        return p;
      }(),
  };
  for (const auto& p : layouts) {
    SystemState state(ts, n, T);
    state.place(p);
    EXPECT_GE(acceptor_fraction(state, ts.max_weight()),
              eps / (1.0 + eps) - 1e-12);
  }
}

TEST(Lemma1Test, BoundIsAchievable) {
  // Sanity in the other direction: the fraction can get close to the bound
  // when weight is spread to exactly the acceptance boundary.
  const double eps = 0.2;
  const std::size_t m = 600;
  const TaskSet ts = uniform_unit(m);
  const Node n = 100;  // W/n = 6; T = 8.2; T - w_max = 7.2
  const double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, eps);
  // Put 8 units on as many resources as possible (load 8 > 7.2).
  tlb::tasks::Placement p(m);
  const std::size_t full_groups = m / 8;
  for (std::size_t group = 0; group < full_groups; ++group) {
    for (std::size_t j = 0; j < 8; ++j) {
      p[group * 8 + j] = static_cast<Node>(group);
    }
  }
  for (std::size_t idx = full_groups * 8; idx < m; ++idx) {
    p[idx] = static_cast<Node>(full_groups);
  }
  SystemState state(ts, n, T);
  state.place(p);
  const double frac = acceptor_fraction(state, ts.max_weight());
  EXPECT_GE(frac, eps / (1.0 + eps) - 1e-12);
  EXPECT_LT(frac, 0.5);  // well below 1: the bound is doing work
}

}  // namespace
