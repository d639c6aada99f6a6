// Baseline protocols as first-class scenario citizens: every baseline spec
// parses and round-trips, runs a small preset through workload::Scenario
// with paranoid audits on, and produces thread-count-invariant JSON. Also
// pins the done()/balanced() split: a one-shot allocator finishes its
// single round even when the result does not meet the comparison
// threshold, instead of spinning to the round cap.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/scenario.hpp"

namespace {

using namespace tlb;
using tasks::TaskSet;
using util::Rng;

TaskSet unit_tasks(std::size_t m) {
  return TaskSet(std::vector<double>(m, 1.0));
}

TaskSet mixed_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

// ---- scenario registry integration ----------------------------------------

const char* kBaselineSpecs[] = {
    "seqthresh:complete:uniform(8):batch",
    "parthresh:complete:uniform(8):batch",
    "twochoice(2):complete:unit:batch",
    "onebeta(0.5):complete:uniform(8):batch",
    "selfish:complete:uniform(8):batch",
    "firstfit:complete:uniform(8):batch",
};

TEST(BaselineScenarioTest, EverySpecParsesAndRoundTrips) {
  for (const char* text : kBaselineSpecs) {
    const auto spec = workload::ScenarioSpec::parse(text);
    EXPECT_TRUE(workload::is_baseline(spec.protocol)) << text;
    EXPECT_EQ(spec.canonical(), text);
    EXPECT_EQ(workload::ScenarioSpec::parse(spec.canonical()).canonical(),
              spec.canonical());
  }
}

TEST(BaselineScenarioTest, RegistryCoversAllSixBaselines) {
  std::size_t baseline_presets = 0;
  for (const auto& named : workload::scenario_registry()) {
    const auto spec = workload::resolve_scenario(named.name);
    if (workload::is_baseline(spec.protocol)) ++baseline_presets;
  }
  EXPECT_EQ(baseline_presets, 6u);
}

TEST(BaselineScenarioTest, SmallPresetsRunToBalanceUnderParanoidAudits) {
  // The threshold-constrained baselines and the centralized yardstick are
  // balanced by construction once complete; selfish converges at this small
  // scale. paranoid = true runs each wrapper's audit() every round.
  for (const char* text : {
           "seqthresh:complete:uniform(8):batch",
           "parthresh:complete:uniform(8):batch",
           "selfish:complete:uniform(8):batch",
           "firstfit:complete:uniform(8):batch",
       }) {
    workload::ScenarioParams params;
    params.n = 32;
    params.load_factor = 8;
    params.paranoid = true;
    const workload::Scenario scenario(workload::ScenarioSpec::parse(text),
                                      params);
    const workload::ScenarioResult result = scenario.run(3, 7, 1);
    EXPECT_EQ(result.stats.unbalanced, 0u) << text;
    EXPECT_GT(result.stats.migrations.mean(), 0.0) << text;
  }
}

TEST(BaselineScenarioTest, OneShotAllocatorsFinishInOneRoundEvenUnbalanced) {
  // twochoice/onebeta place everything in one "round of coordination" and
  // report balance against the scenario threshold honestly — the driver
  // must stop at done(), never spin to max_rounds on an unbalanced but
  // finished allocation.
  for (const char* text : {
           "twochoice(2):complete:uniform(8):batch",
           "onebeta(0.5):complete:uniform(8):batch",
       }) {
    workload::ScenarioParams params;
    params.n = 32;
    params.load_factor = 8;
    params.paranoid = true;
    const workload::Scenario scenario(workload::ScenarioSpec::parse(text),
                                      params);
    const workload::ScenarioResult result = scenario.run(4, 11, 1);
    EXPECT_EQ(result.stats.rounds.mean(), 1.0) << text;
    EXPECT_EQ(result.stats.rounds.max(), 1.0) << text;
  }
}

TEST(BaselineScenarioTest, JsonByteIdenticalAcrossTrialThreads) {
  for (const char* text : kBaselineSpecs) {
    workload::ScenarioParams params;
    params.n = 32;
    params.load_factor = 4;
    const workload::Scenario scenario(workload::ScenarioSpec::parse(text),
                                      params);
    const std::string one = scenario.run(6, 123, 1).json();
    const std::string eight = scenario.run(6, 123, 8).json();
    EXPECT_EQ(one, eight) << text;
  }
}

// ---- balancers ------------------------------------------------------------

TEST(BaselineBalancerTest, FirstFitBalancesUnderProperAssignmentBound) {
  const TaskSet ts = mixed_tasks(300, 0x55);
  const graph::Node n = 12;
  engine::FirstFitBalancer balancer(ts, n);  // T = W/n + w_max
  Rng rng(1);
  const core::RunResult result =
      engine::drive(balancer, rng, engine::DriveOptions{});
  EXPECT_EQ(result.rounds, 1);
  EXPECT_TRUE(result.balanced);
  EXPECT_EQ(result.migrations, ts.size());
  EXPECT_LE(result.final_max_load,
            ts.total_weight() / n + ts.max_weight() + 1e-9);
  EXPECT_EQ(balancer.assignment().target.size(), ts.size());
  EXPECT_NO_THROW(balancer.audit());
}

TEST(BaselineBalancerTest, InfeasibleSequentialThresholdReportsIncomplete) {
  // Threshold below the heaviest task: the first heavy ball exhausts its
  // retries; done() must still become true (no infinite drive) while
  // balanced() stays false.
  std::vector<double> w(8, 1.0);
  w[0] = 100.0;
  const TaskSet ts{std::move(w)};
  engine::SequentialThresholdBalancer balancer(ts, 4, /*threshold=*/5.0);
  Rng rng(3);
  const core::RunResult result =
      engine::drive(balancer, rng, engine::DriveOptions{});
  EXPECT_EQ(result.rounds, 1);
  EXPECT_TRUE(balancer.done());
  EXPECT_FALSE(result.balanced);
  EXPECT_FALSE(balancer.completed());
}

TEST(BaselineBalancerTest, ValidationErrors) {
  const TaskSet ts = unit_tasks(8);
  Rng rng(1);
  EXPECT_THROW(engine::SequentialThresholdBalancer(ts, 0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(engine::ParallelThresholdBalancer(ts, 4, 0.0),
               std::invalid_argument);
  EXPECT_THROW(engine::ChoiceBalancer(ts, 4, 0, 0.0, 5.0),
               std::invalid_argument);
  EXPECT_THROW(engine::ChoiceBalancer(ts, 4, 2, 1.5, 5.0),
               std::invalid_argument);
}

}  // namespace
