// Tests for the incremental overloaded-set machinery: the OverloadedSet
// tracker itself, SystemState's O(active) queries against brute-force
// rescans on randomized mutation traces, and paranoid-check runs of every
// engine and every registered workload preset (each engine cross-checks the
// incremental set against a full rescan every round when paranoid mode is
// on, so these runs are the regression net for the O(active) round core).
#include "tlb/core/overloaded_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
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
using tlb::engine::reset_and_run;

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

/// The brute-force overloaded list: every r with loads[r] > T, ascending.
std::vector<Node> brute_force(const std::vector<double>& loads, double T) {
  std::vector<Node> out;
  for (Node r = 0; r < static_cast<Node>(loads.size()); ++r) {
    if (loads[r] > T) out.push_back(r);
  }
  return out;
}

TEST(OverloadedSetTest, DenseAndSparseMovesMatchBruteForce) {
  // Random traffic on both sides of the n/16 cut: each step changes either
  // a few loads (sparse) or many (dense), then moves the threshold and
  // flushes. The list must equal the brute-force rescan, sorted, after
  // every flush whichever way the move went.
  const Node n = 512;  // cut: 32 pending
  Rng rng(99);
  std::vector<double> loads(n);
  for (double& l : loads) l = std::floor(rng.uniform01() * 40.0);
  double T = 30.0;
  OverloadedSet set;
  set.rebuild(n);
  const auto over = [&loads, &T](Node r) { return loads[r] > T; };
  const auto load = [&loads](Node r) { return loads[r]; };
  set.flush(over);
  std::uint64_t dense = 0;
  std::uint64_t sparse = 0;
  for (int step = 0; step < 400; ++step) {
    const std::size_t touched =
        rng.bernoulli(0.5) ? rng.uniform_below(n / 16)
                           : n / 16 + 1 + rng.uniform_below(n / 2);
    for (std::size_t i = 0; i < touched; ++i) {
      const auto r = static_cast<Node>(rng.uniform_below(n));
      const double delta = std::floor(rng.uniform01() * 9.0) - 4.0;
      loads[r] = std::max(0.0, loads[r] + delta);
      set.mark_dirty(r);
    }
    const double next = 20.0 + std::floor(rng.uniform01() * 20.0) + 0.5;
    const std::uint64_t sweeps0 = set.sweeps();
    set.shift_threshold(T, next, load);
    T = next;
    set.flush(over);
    (set.sweeps() > sweeps0 ? dense : sparse) += 1;
    ASSERT_TRUE(set.clean());
    ASSERT_EQ(set.items(), brute_force(loads, T)) << "step " << step;
  }
  // Both paths ran, many times each.
  EXPECT_GT(dense, 100u);
  EXPECT_GT(sparse, 100u);
}

TEST(OverloadedSetTest, DenseCutSitsAboveOneSixteenthPending) {
  // n = 4096: at exactly n/16 = 256 pending re-checks a threshold move
  // takes the band path; at 257 it sweeps — n predicate checks, index
  // stale — and the list is the same either way.
  const Node n = 4096;
  std::vector<double> loads(n);
  for (Node r = 0; r < n; ++r) loads[r] = static_cast<double>(r % 100);
  double T = 90.0;
  OverloadedSet set;
  set.rebuild(n);
  const auto over = [&loads, &T](Node r) { return loads[r] > T; };
  const auto load = [&loads](Node r) { return loads[r]; };
  set.flush(over);
  set.shift_threshold(T, 91.5, load);  // arms the index (nothing pending)
  T = 91.5;
  set.flush(over);
  ASSERT_TRUE(set.load_index().built());

  const auto move_with_pending = [&](std::size_t pending, double next) {
    for (Node r = 0; r < static_cast<Node>(pending); ++r) set.mark_dirty(r);
    ASSERT_EQ(set.dirty_size(), pending);
    set.shift_threshold(T, next, load);
    T = next;
  };

  const std::uint64_t band0 = set.load_index().band_size();
  const std::uint64_t sweeps0 = set.sweeps();
  move_with_pending(n / 16, 89.5);
  EXPECT_TRUE(set.load_index().built());
  EXPECT_GT(set.load_index().band_size(), band0);
  const std::uint64_t checks0 = set.flush_checks();
  set.flush(over);
  EXPECT_LT(set.flush_checks() - checks0, static_cast<std::uint64_t>(n) / 2);
  EXPECT_EQ(set.sweeps(), sweeps0);
  EXPECT_EQ(set.items(), brute_force(loads, T));

  const std::uint64_t band1 = set.load_index().band_size();
  move_with_pending(n / 16 + 1, 92.5);
  EXPECT_FALSE(set.load_index().built());  // stale
  EXPECT_EQ(set.load_index().band_size(), band1);
  const std::uint64_t checks1 = set.flush_checks();
  set.flush(over);
  EXPECT_EQ(set.flush_checks() - checks1, static_cast<std::uint64_t>(n));
  EXPECT_EQ(set.sweeps(), sweeps0 + 1);
  EXPECT_EQ(set.items(), brute_force(loads, T));
}

TEST(OverloadedSetTest, SparseMoveAfterDenseRebuildsIndexOnce) {
  // A dense move leaves the index stale; the next sparse move rebuilds it
  // (rebuilds() + 1) and then visits exactly the band (lo, hi].
  const Node n = 1024;
  Rng rng(5);
  std::vector<double> loads(n);
  for (double& l : loads) l = std::floor(rng.uniform01() * 64.0);
  double T = 50.5;
  OverloadedSet set;
  set.rebuild(n);
  const auto over = [&loads, &T](Node r) { return loads[r] > T; };
  const auto load = [&loads](Node r) { return loads[r]; };
  set.flush(over);
  set.shift_threshold(T, 48.5, load);  // sparse: first build
  T = 48.5;
  set.flush(over);
  ASSERT_EQ(set.load_index().rebuilds(), 1u);

  // Dense round: half the loads change.
  for (Node r = 0; r < n; r += 2) {
    loads[r] = std::floor(rng.uniform01() * 64.0);
    set.mark_dirty(r);
  }
  set.shift_threshold(T, 52.5, load);
  T = 52.5;
  set.flush(over);
  ASSERT_EQ(set.sweeps(), 1u);
  ASSERT_EQ(set.items(), brute_force(loads, T));

  // Sparse round: two loads change, the threshold drops into (44.5, 52.5].
  loads[3] = 60.0;
  loads[8] = 1.0;
  set.mark_dirty(3);
  set.mark_dirty(8);
  const std::uint64_t band0 = set.load_index().band_size();
  set.shift_threshold(T, 44.5, load);
  EXPECT_EQ(set.load_index().rebuilds(), 2u);
  std::uint64_t in_band = 0;
  for (const double l : loads) in_band += (l > 44.5 && l <= 52.5) ? 1 : 0;
  EXPECT_EQ(set.load_index().band_size() - band0, in_band);
  T = 44.5;
  set.flush(over);
  EXPECT_EQ(set.sweeps(), 1u);
  EXPECT_EQ(set.items(), brute_force(loads, T));
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
  SystemState state(ts, n, T);
  Rng rng(2024);
  Placement p(m);
  for (auto& r : p) r = static_cast<Node>(rng.uniform_below(n));
  state.place(p);

  std::vector<TaskId> movers;
  std::vector<Node> dst;
  std::vector<std::uint8_t> mask;
  for (int step = 0; step < 500; ++step) {
    const auto r = static_cast<Node>(rng.uniform_below(n));
    const ResourceStack stack = state.stack(r);
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
    EXPECT_EQ(fast, brute_force(state.loads(), T));
    EXPECT_EQ(state.balanced(), fast.empty());
    ASSERT_NO_THROW(state.check_invariants());
  }
}

const tlb::engine::DriveOptions kAudited{.max_rounds = 5000,
                                        .paranoid_checks = true};

TEST(EngineParanoidTest, ExactUserEngineAuditedRun) {
  const std::size_t m = 400;
  const TaskSet ts = uniform_unit(m);
  const Node n = 20;
  UserProtocolConfig cfg;
  cfg.threshold =
      threshold_value(ThresholdKind::kAboveAverage, ts, n, /*eps=*/0.25);
  UserControlledEngine engine(ts, n, cfg);
  Rng rng(7);
  // Brute-force cross-check every round.
  const RunResult result = reset_and_run(engine, tlb::tasks::all_on_one(ts),
                                         rng, kAudited);
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
  GroupedUserEngine engine(ts, n, cfg);
  Rng rng(11);
  const RunResult result = reset_and_run(engine, tlb::tasks::all_on_one(ts),
                                         rng, kAudited);
  EXPECT_TRUE(result.balanced);
}

TEST(EngineParanoidTest, DynamicEngineAuditedChurn) {
  DynamicConfig cfg;
  cfg.n = 40;
  cfg.arrival_rate = 20.0;
  cfg.completion_rate = 0.05;
  cfg.crash_rate = 0.02;  // exercise the fail-over path too
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  DynamicUserEngine engine(cfg);
  Rng rng(13);
  EXPECT_NO_THROW(engine.run(
      {.paranoid_checks = true, .warmup = 200, .measure = 300}, rng));
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
