// Tests for the convergence-analytics observer (obs::LoadStatsObserver):
// every-k sampling with the final snapshot always taken, byte-identical
// JSON across engine-thread counts {1, 2, 0}, attach-changes-no-result,
// and collect_load_stats support across the engine spectrum — the
// SystemState-backed exact engine (BalancerView's state() fallback), the
// grouped engine and the allocation baselines (their own hooks), plus the
// honest supported=false degradation for a view with no load access.
#include "tlb/obs/analytics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;
using core::RunResult;
using obs::LoadStatsObserver;
using tasks::TaskSet;
using util::Rng;

TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

core::UserProtocolConfig user_config(const TaskSet& ts, graph::Node n,
                                     std::size_t threads = 1) {
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / static_cast<double>(n) +
                  ts.max_weight();
  cfg.options.threads = threads;
  return cfg;
}

/// View with no collect_load_stats hook and no state() — the observer must
/// degrade to supported=false instead of inventing numbers.
class OpaqueView final : public engine::BalancerView {
 public:
  double potential() const override { return 0.0; }
  std::uint32_t overloaded_count() const override { return 0; }
  double max_load() const override { return 0.0; }
  bool balanced() const override { return false; }
};

TEST(LoadStatsObserverTest, RejectsNonPositiveStride) {
  EXPECT_THROW(LoadStatsObserver(0), std::invalid_argument);
  EXPECT_THROW(LoadStatsObserver(-3), std::invalid_argument);
  EXPECT_EQ(LoadStatsObserver(4).every(), 4);
}

TEST(LoadStatsObserverTest, SamplesEveryKthRoundPlusFinal) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0xA11);
  core::UserControlledEngine engine(ts, n, user_config(ts, n));
  engine.reset(tasks::all_on_one(ts));

  LoadStatsObserver obs(3);
  Rng rng(7);
  const RunResult result =
      engine::drive(engine, rng, engine::DriveOptions{}, &obs);
  EXPECT_TRUE(result.balanced);
  EXPECT_TRUE(obs.supported());

  std::size_t final_rows = 0;
  long expected_round = 0;
  for (const LoadStatsObserver::Row& row : obs.rows()) {
    if (row.final_state) {
      ++final_rows;
      continue;
    }
    EXPECT_EQ(row.round, expected_round);  // rounds 0, 3, 6, ...
    EXPECT_EQ(row.round % 3, 0);
    expected_round += 3;
    EXPECT_GT(row.stats.n, 0u);
    EXPECT_GE(row.stats.max_load, row.stats.p99);
    EXPECT_GE(row.stats.p99, row.stats.p90);
    EXPECT_GE(row.stats.p90, row.stats.p50);
  }
  EXPECT_EQ(final_rows, 1u);
  // Rounds 0, 3, ... strictly below result.rounds.
  EXPECT_EQ(obs.rows().size(),
            static_cast<std::size_t>((result.rounds + 2) / 3) + 1);

  // The final row lands in the "final" key, sampled rounds in "rounds".
  const std::string json = obs.json();
  EXPECT_NE(json.find("\"every\":3"), std::string::npos);
  EXPECT_NE(json.find("\"supported\":true"), std::string::npos);
  EXPECT_NE(json.find("\"final\":{"), std::string::npos);
  // The final snapshot of a balanced run has nothing above threshold.
  EXPECT_NE(json.find("\"overload_mass\":0,"), std::string::npos);
}

TEST(LoadStatsObserverTest, AttachingChangesNoResult) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0xA12);

  core::UserControlledEngine plain(ts, n, user_config(ts, n));
  plain.reset(tasks::all_on_one(ts));
  Rng plain_rng(17);
  const RunResult expected =
      engine::drive(plain, plain_rng, engine::DriveOptions{}, nullptr);

  core::UserControlledEngine observed(ts, n, user_config(ts, n));
  observed.reset(tasks::all_on_one(ts));
  LoadStatsObserver obs(1);
  Rng observed_rng(17);
  const RunResult actual =
      engine::drive(observed, observed_rng, engine::DriveOptions{}, &obs);

  EXPECT_EQ(expected.rounds, actual.rounds);
  EXPECT_EQ(expected.migrations, actual.migrations);
  EXPECT_EQ(expected.balanced, actual.balanced);
  EXPECT_EQ(expected.final_max_load, actual.final_max_load);
  EXPECT_EQ(obs.rows().size(), static_cast<std::size_t>(actual.rounds) + 1);
}

TEST(LoadStatsObserverTest, JsonByteIdenticalAcrossEngineThreads) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0xA13);

  const auto run = [&](std::size_t threads) {
    core::UserControlledEngine engine(ts, n, user_config(ts, n, threads));
    engine.reset(tasks::all_on_one(ts));
    LoadStatsObserver obs(2);
    Rng rng(23);
    engine::drive(engine, rng, engine::DriveOptions{}, &obs);
    return obs.json();
  };

  const std::string inline_json = run(1);
  EXPECT_EQ(inline_json, run(2));
  EXPECT_EQ(inline_json, run(0));
}

TEST(LoadStatsObserverTest, GroupedEngineServesStats) {
  // Two weight classes -> the grouped engine, which has its own
  // collect_load_stats hook (no SystemState behind it).
  const graph::Node n = 16;
  std::vector<double> w;
  for (int i = 0; i < 512; ++i) w.push_back(i % 10 == 0 ? 8.0 : 1.0);
  const TaskSet ts{std::move(w)};
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.25 * ts.total_weight() / static_cast<double>(n) +
                  ts.max_weight();
  core::GroupedUserEngine engine(ts, n, cfg);
  engine.reset(tasks::all_on_one(ts));

  LoadStatsObserver obs(1);
  Rng rng(29);
  engine::drive(engine, rng, engine::DriveOptions{}, &obs);
  EXPECT_TRUE(obs.supported());
  ASSERT_FALSE(obs.rows().empty());
  const LoadStatsObserver::Row& first = obs.rows().front();
  // Round 0: everything on resource 0 — max is the whole weight, median 0.
  EXPECT_EQ(first.stats.max_load, ts.total_weight());
  EXPECT_EQ(first.stats.p50, 0.0);
  EXPECT_EQ(first.stats.overloaded, 1u);
}

TEST(LoadStatsObserverTest, BaselineBalancersServeStats) {
  const graph::Node n = 16;
  const TaskSet ts = continuous_tasks(512, 0xA14);
  const double T = 1.25 * ts.total_weight() / static_cast<double>(n) +
                   ts.max_weight();
  tlb::engine::ChoiceBalancer balancer(ts, n, /*choices=*/2, /*beta=*/0.0,
                                      T);

  LoadStatsObserver obs(1);
  Rng rng(31);
  engine::drive(balancer, rng, engine::DriveOptions{}, &obs);
  EXPECT_TRUE(obs.supported());
  ASSERT_FALSE(obs.rows().empty());
  // Final state: every ball placed, so the mean is W/n (up to summation
  // order — the stats sum in resource order, the task set in task order).
  const LoadStatsObserver::Row& last = obs.rows().back();
  EXPECT_TRUE(last.final_state);
  EXPECT_DOUBLE_EQ(last.stats.mean_load,
                   ts.total_weight() / static_cast<double>(n));
}

TEST(LoadStatsObserverTest, UnsupportedViewDegradesHonestly) {
  LoadStatsObserver obs(1);
  const OpaqueView view;
  obs.on_round(view, 0);
  obs.on_finish(view);
  EXPECT_FALSE(obs.supported());
  EXPECT_TRUE(obs.rows().empty());
  const std::string json = obs.json();
  EXPECT_NE(json.find("\"supported\":false"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":[]"), std::string::npos);
  EXPECT_EQ(json.find("\"final\""), std::string::npos);
}

}  // namespace
