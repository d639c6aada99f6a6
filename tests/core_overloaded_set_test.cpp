// Tests for the incremental overloaded-set machinery: the OverloadedSet
// tracker itself, SystemState's O(active) queries against brute-force
// rescans on randomized mutation traces, and paranoid-check runs of every
// engine and every registered workload preset (each engine cross-checks the
// incremental set against a full rescan every round when paranoid mode is
// on, so these runs are the regression net for the O(active) round core).
#include "tlb/core/overloaded_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/scenario.hpp"

namespace {

using namespace tlb::core;
using tlb::graph::Node;
using tlb::tasks::Placement;
using tlb::tasks::TaskId;
using tlb::tasks::TaskSet;
using tlb::tasks::uniform_unit;
using tlb::util::Rng;

TEST(OverloadedSetTest, FlushReconcilesDirtyEntries) {
  OverloadedSet set;
  set.reset(5);
  std::vector<double> loads = {0.0, 3.0, 1.0, 5.0, 2.0};
  const auto over = [&loads](Node r) { return loads[r] > 2.0; };

  set.mark_all_dirty();
  set.flush(over);
  EXPECT_EQ(set.items(), (std::vector<Node>{1, 3}));
  EXPECT_TRUE(set.clean());

  // Flip 1 under and 4 over; only marked entries are reconsidered.
  loads[1] = 0.5;
  loads[4] = 9.0;
  set.mark_dirty(1);
  set.mark_dirty(4);
  set.flush(over);
  EXPECT_EQ(set.items(), (std::vector<Node>{3, 4}));
}

TEST(OverloadedSetTest, ListStaysSortedAndDeduplicated) {
  OverloadedSet set;
  set.reset(8);
  std::vector<double> loads(8, 0.0);
  const auto over = [&loads](Node r) { return loads[r] > 0.0; };
  // Mark in descending order, several times each.
  for (int rep = 0; rep < 3; ++rep) {
    for (Node r = 8; r-- > 0;) {
      loads[r] = (r % 2) ? 1.0 : 0.0;
      set.mark_dirty(r);
    }
  }
  set.flush(over);
  EXPECT_EQ(set.items(), (std::vector<Node>{1, 3, 5, 7}));
  // No dirt => flush is a no-op even if the closure would now disagree.
  set.flush([](Node) { return false; });
  EXPECT_EQ(set.items(), (std::vector<Node>{1, 3, 5, 7}));
}

TEST(SystemStateOverloadedTest, MatchesBruteForceUnderRandomTraffic) {
  // Randomized mutation trace through the forwarders: repeatedly yank a
  // random subset of a random resource's stack and scatter it, comparing
  // the incremental set against the O(n) ground truth after every step.
  const std::size_t m = 300;
  const TaskSet ts = uniform_unit(m);
  const Node n = 16;
  const double T =
      threshold_value(ThresholdKind::kAboveAverage, ts, n, /*eps=*/0.2);
  SystemState state(ts, n);
  state.set_thresholds(T);
  Rng rng(2024);
  Placement p(m);
  for (auto& r : p) r = static_cast<Node>(rng.uniform_below(n));
  state.place(p, /*threshold=*/-1.0);

  std::vector<TaskId> movers;
  std::vector<Node> dst;
  std::vector<std::uint8_t> mask;
  for (int step = 0; step < 500; ++step) {
    const auto r = static_cast<Node>(rng.uniform_below(n));
    const ResourceStack& stack = std::as_const(state).stack(r);
    if (!stack.empty()) {
      mask.assign(stack.count(), 0);
      for (auto& bit : mask) bit = rng.bernoulli(0.3);
      movers.clear();
      state.remove_marked(r, mask, movers);
      dst.resize(movers.size());
      for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
      state.scatter(dst, movers);
    }
    // Incremental vs brute force, every step.
    const std::vector<Node>& fast = state.overloaded();
    EXPECT_EQ(fast.size(), state.overloaded_count(T));
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_GT(state.load(fast[i]), T);
      if (i) {
        EXPECT_LT(fast[i - 1], fast[i]);
      }
    }
    EXPECT_EQ(state.balanced(), state.balanced(T));
    ASSERT_NO_THROW(state.check_invariants());
  }
}

TEST(SystemStateOverloadedTest, ReRegisteringSameThresholdIsFree) {
  // PR 4 gave recompute_threshold a same-value no-op guard; the same guard
  // now lives on the bulk mutator: re-registering the value already in
  // force must cost zero re-checks on the next query.
  const std::size_t m = 64;
  const TaskSet ts = uniform_unit(m);
  const Node n = 8;
  SystemState state(ts, n);
  state.set_thresholds(5.0);
  Rng rng(3);
  Placement p(m);
  for (auto& r : p) r = static_cast<Node>(rng.uniform_below(n));
  state.place(p, -1.0);
  (void)state.overloaded();  // settle the dirty set

  const std::uint64_t checks0 = state.overloaded_tracker().flush_checks();
  state.set_thresholds(5.0);  // scalar same-value no-op
  (void)state.overloaded();
  EXPECT_EQ(state.overloaded_tracker().flush_checks(), checks0);

  // Same for the vector form: an identical per-resource registration.
  std::vector<double> per(n, 4.0);
  state.set_thresholds(per);
  (void)state.overloaded();
  const std::uint64_t checks1 = state.overloaded_tracker().flush_checks();
  state.set_thresholds(per);
  (void)state.overloaded();
  EXPECT_EQ(state.overloaded_tracker().flush_checks(), checks1);
}

TEST(SystemStateOverloadedTest, UniformShiftReconcilesOnlyTheBand) {
  // Distinct integer loads 1..n; moving the uniform threshold by k flips
  // exactly k resources, and the flush work must scale with the band (and
  // the standing overloaded list), not with n.
  const Node n = 256;
  const std::size_t m = static_cast<std::size_t>(n) * (n + 1) / 2;
  const TaskSet ts = uniform_unit(m);
  SystemState state(ts, n);
  Placement p(m);
  std::size_t next = 0;
  for (Node r = 0; r < n; ++r) {  // resource r gets r+1 unit tasks
    for (Node k = 0; k <= r; ++k) p[next++] = r;
  }
  state.set_thresholds(static_cast<double>(n - 4));  // 4 overloaded
  state.place(p, -1.0);
  ASSERT_EQ(state.overloaded().size(), 4u);

  // First move arms the LoadIndex (one O(n) build, counted separately).
  state.set_thresholds(static_cast<double>(n - 6));
  ASSERT_EQ(state.overloaded().size(), 6u);
  ASSERT_EQ(state.overloaded_tracker().load_index().rebuilds(), 1u);

  const std::uint64_t checks0 = state.overloaded_tracker().flush_checks();
  const std::uint64_t band0 = state.overloaded_tracker().load_index().band_size();
  state.set_thresholds(static_cast<double>(n - 10));  // 4 more flip on
  ASSERT_EQ(state.overloaded().size(), 10u);
  EXPECT_EQ(state.overloaded_tracker().load_index().band_size() - band0, 4u);
  // Flush re-checks the 6 standing entries + the 4-band — far below n.
  EXPECT_LE(state.overloaded_tracker().flush_checks() - checks0, 16u);
  // And back up: band (n-10, n-6] flips the same 4 off.
  state.set_thresholds(static_cast<double>(n - 6));
  EXPECT_EQ(state.overloaded().size(), 6u);
  EXPECT_EQ(state.overloaded_tracker().load_index().rebuilds(), 1u);
}

TEST(SystemStateOverloadedTest, RandomTrafficWithThresholdMoves) {
  // The MatchesBruteForceUnderRandomTraffic trace, with uniform threshold
  // moves interleaved mid-trace: every step the incremental set (now
  // band-reconciled through the LoadIndex) must equal the O(n) rescan.
  const std::size_t m = 300;
  const TaskSet ts = uniform_unit(m);
  const Node n = 16;
  double T = threshold_value(ThresholdKind::kAboveAverage, ts, n, 0.2);
  SystemState state(ts, n);
  state.set_thresholds(T);
  Rng rng(4711);
  Placement p(m);
  for (auto& r : p) r = static_cast<Node>(rng.uniform_below(n));
  state.place(p, -1.0);

  std::vector<TaskId> movers;
  std::vector<Node> dst;
  std::vector<std::uint8_t> mask;
  for (int step = 0; step < 500; ++step) {
    if (step % 7 == 3) {
      // Drift the threshold up or down (stays positive).
      T = std::max(1.0, T + (rng.uniform01() - 0.5) * 6.0);
      state.set_thresholds(T);
    } else {
      const auto r = static_cast<Node>(rng.uniform_below(n));
      const ResourceStack& stack = std::as_const(state).stack(r);
      if (!stack.empty()) {
        mask.assign(stack.count(), 0);
        for (auto& bit : mask) bit = rng.bernoulli(0.3);
        movers.clear();
        state.remove_marked(r, mask, movers);
        dst.resize(movers.size());
        for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
        state.scatter(dst, movers);
      }
    }
    const std::vector<Node>& fast = state.overloaded();
    EXPECT_EQ(fast.size(), state.overloaded_count(T));
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_GT(state.load(fast[i]), T);
      if (i) {
        EXPECT_LT(fast[i - 1], fast[i]);
      }
    }
    ASSERT_NO_THROW(state.check_invariants());
  }
}

TEST(SystemStateOverloadedTest, QueriesRequireRegisteredThresholds) {
  const TaskSet ts = uniform_unit(4);
  SystemState state(ts, 2);
  state.place({0, 0, 1, 1}, -1.0);
  EXPECT_THROW(state.overloaded(), std::logic_error);
  EXPECT_THROW((void)state.balanced(), std::logic_error);
  state.set_thresholds(1.5);
  EXPECT_EQ(state.overloaded_count(), 2u);
  EXPECT_FALSE(state.balanced());
}

TEST(EngineParanoidTest, ExactUserEngineAuditedRun) {
  const std::size_t m = 400;
  const TaskSet ts = uniform_unit(m);
  const Node n = 20;
  UserProtocolConfig cfg;
  cfg.threshold =
      threshold_value(ThresholdKind::kAboveAverage, ts, n, /*eps=*/0.25);
  cfg.options.max_rounds = 5000;
  cfg.options.paranoid_checks = true;  // brute-force cross-check every round
  UserControlledEngine engine(ts, n, cfg);
  Rng rng(7);
  const RunResult result = engine.run(tlb::tasks::all_on_one(ts), rng);
  EXPECT_TRUE(result.balanced);
}

TEST(EngineParanoidTest, GroupedUserEngineAuditedRun) {
  const std::size_t m = 500;
  std::vector<double> weights;
  weights.reserve(m);
  for (std::size_t i = 0; i < m; ++i) weights.push_back(i % 10 == 0 ? 8.0 : 1.0);
  const TaskSet ts(std::move(weights));
  const Node n = 25;
  UserProtocolConfig cfg;
  cfg.threshold =
      threshold_value(ThresholdKind::kAboveAverage, ts, n, /*eps=*/0.25);
  cfg.options.max_rounds = 5000;
  cfg.options.paranoid_checks = true;
  GroupedUserEngine engine(ts, n, cfg);
  Rng rng(11);
  const RunResult result = engine.run(tlb::tasks::all_on_one(ts), rng);
  EXPECT_TRUE(result.balanced);
}

TEST(EngineParanoidTest, DynamicEngineAuditedChurn) {
  DynamicConfig cfg;
  cfg.n = 40;
  cfg.arrival_rate = 20.0;
  cfg.completion_rate = 0.05;
  cfg.crash_rate = 0.02;  // exercise the fail-over path too
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  cfg.paranoid_checks = true;
  DynamicUserEngine engine(cfg);
  Rng rng(13);
  tlb::engine::DriveOptions opt;
  opt.warmup = 200;
  opt.measure = 300;
  EXPECT_NO_THROW(engine.run(opt, rng));
}

TEST(WorkloadPresetParanoidTest, AllRegisteredPresetsPassAuditedRuns) {
  // Every registered preset (all protocols, topologies, weight models and
  // arrival processes) runs with per-round incremental-vs-rescan audits.
  for (const auto& named : tlb::workload::scenario_registry()) {
    tlb::workload::ScenarioParams params;
    params.n = 32;
    params.load_factor = 4;
    params.max_rounds = 20000;
    params.warmup = 100;
    params.measure = 200;
    params.paranoid = true;
    const tlb::workload::Scenario scenario(
        tlb::workload::resolve_scenario(named.name), params);
    EXPECT_NO_THROW(scenario.run(/*trials=*/2, /*seed=*/99, /*threads=*/1))
        << "preset " << named.name;
  }
}

}  // namespace
