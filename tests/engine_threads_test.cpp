// Differential determinism tests for the parallel phase-1 sampling: every
// parallel-capable engine (exact, grouped, dynamic) must produce bitwise
// identical results for any engine-thread count, because departure sampling
// is sharded with per-(round, shard) RNG streams and the shard partition
// depends only on the round-start state — never on who runs a shard.
// Includes the shard-boundary edge cases: empty overloaded set, a single
// overloaded resource (the paper's all-on-one start), fewer overloaded
// resources than a shard, and coin/resource counts spanning many shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb::core;
using tlb::tasks::Placement;
using tlb::tasks::TaskSet;
using tlb::util::Rng;
using tlb::engine::reset_and_run;

// Thread counts under test: inline, small pools, oversubscribed pool, and
// hardware concurrency (0). All must agree bitwise with the inline run.
const std::size_t kThreadCounts[] = {1, 2, 4, 8, 0};

/// A drive's result plus its per-round potential and overloaded traces.
struct TracedRun {
  RunResult result;
  std::vector<double> potential;
  std::vector<std::uint32_t> overloaded;
};

/// Drive `engine` from its current state, capped at 200000 rounds, with
/// potential and overloaded trace observers attached.
template <class Engine>
TracedRun traced_drive(Engine& engine, Rng& rng) {
  tlb::engine::PotentialTrace potential;
  tlb::engine::OverloadedTrace overloaded;
  tlb::engine::ObserverList observers({&potential, &overloaded});
  TracedRun run;
  run.result =
      tlb::engine::drive(engine, rng, {.max_rounds = 200000}, &observers);
  run.potential = potential.take();
  run.overloaded = overloaded.take();
  return run;
}

/// Bitwise equality: counters, doubles compared with ==, and the traces
/// element by element.
void expect_identical(const TracedRun& a, const TracedRun& b,
                      std::size_t threads) {
  EXPECT_EQ(a.result.rounds, b.result.rounds) << "threads=" << threads;
  EXPECT_EQ(a.result.balanced, b.result.balanced) << "threads=" << threads;
  EXPECT_EQ(a.result.migrations, b.result.migrations)
      << "threads=" << threads;
  EXPECT_EQ(a.result.threshold, b.result.threshold) << "threads=" << threads;
  EXPECT_EQ(a.result.final_max_load, b.result.final_max_load)
      << "threads=" << threads;
  ASSERT_EQ(a.potential.size(), b.potential.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.potential.size(); ++i) {
    EXPECT_EQ(a.potential[i], b.potential[i])
        << "threads=" << threads << " round " << i;
  }
  ASSERT_EQ(a.overloaded.size(), b.overloaded.size())
      << "threads=" << threads;
  for (std::size_t i = 0; i < a.overloaded.size(); ++i) {
    EXPECT_EQ(a.overloaded[i], b.overloaded[i])
        << "threads=" << threads << " round " << i;
  }
}

/// A task set with more distinct weights than GroupedUserEngine accepts, so
/// differential runs exercise the exact per-coin engine.
TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

/// Two-point weights (grouped-representable).
TaskSet two_point_tasks(std::size_t m) {
  std::vector<double> w(m, 1.0);
  for (std::size_t i = 0; i < m; i += 10) w[i] = 8.0;
  return TaskSet(std::move(w));
}

TracedRun run_exact(const TaskSet& ts, Node n, const Placement& start,
                    double threshold, std::size_t threads,
                    std::uint64_t seed) {
  UserProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.options.threads = threads;
  UserControlledEngine engine(ts, n, cfg);
  engine.reset(start);
  Rng rng(seed);
  return traced_drive(engine, rng);
}

TracedRun run_grouped(const TaskSet& ts, Node n, const Placement& start,
                      double threshold, std::size_t threads,
                      std::uint64_t seed) {
  UserProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.options.threads = threads;
  GroupedUserEngine engine(ts, n, cfg);
  engine.reset(start);
  Rng rng(seed);
  return traced_drive(engine, rng);
}

TEST(EngineThreadsTest, ExactEngineBitwiseIdenticalAcrossThreads) {
  // All-on-one start: round 1 has a single overloaded resource whose coin
  // count (m = 40960) spans several kCoinShardGrain-sized shards, and later
  // rounds have many overloaded resources with few coins each — both
  // sharding regimes in one run.
  const Node n = 64;
  const TaskSet ts = continuous_tasks(40960, 0xABCDEF);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  const TracedRun base = run_exact(ts, n, start, T, 1, 777);
  EXPECT_TRUE(base.result.balanced);
  EXPECT_GT(base.result.migrations, 0u);
  for (std::size_t threads : kThreadCounts) {
    expect_identical(base, run_exact(ts, n, start, T, threads, 777),
                     threads);
  }
}

TEST(EngineThreadsTest, ExactEngineFinalLoadsIdentical) {
  const Node n = 32;
  const TaskSet ts = continuous_tasks(4096, 0x1234);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  auto loads_with = [&](std::size_t threads) {
    UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.options.threads = threads;
    UserControlledEngine engine(ts, n, cfg);
    Rng rng(99);
    reset_and_run(engine, start, rng);
    return engine.state().loads();
  };
  const std::vector<double> base = loads_with(1);
  for (std::size_t threads : kThreadCounts) {
    const std::vector<double> other = loads_with(threads);
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      EXPECT_EQ(base[r], other[r]) << "threads=" << threads << " r=" << r;
    }
  }
}

TEST(EngineThreadsTest, ExactEngineShardedMergeAndScatterAcrossThreads) {
  // Phase 2 on the pool: the all-on-one stack spans ten coin shards, and at
  // its round-1 leave probability (about 0.55) every shard holds thousands
  // of leavers and survivors, so each boundary splits a run of both; the
  // movers' scatter spans several destination-block shards. Later rounds
  // keep 64 stacks of ~1100 coins, many of them across a boundary. The
  // whole end state must match the inline run: result, loads, every stack
  // and the arena's relocation history.
  const Node n = 64;
  const std::size_t m = 10 * UserControlledEngine::kCoinShardGrain;
  const TaskSet ts = continuous_tasks(m, 0x5EED);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  struct End {
    TracedRun result;
    std::vector<double> loads;
    std::vector<std::vector<tlb::tasks::TaskId>> stacks;
    std::uint64_t relocations = 0, compactions = 0, round1_movers = 0;
  };
  const auto run_with = [&](std::size_t threads) {
    UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.options.threads = threads;
    UserControlledEngine engine(ts, n, cfg);
    Rng rng(2024);
    engine.reset(start);
    End end;
    end.round1_movers = engine.step(rng);
    end.result = traced_drive(engine, rng);
    end.loads = engine.state().loads();
    for (Node r = 0; r < n; ++r) {
      end.stacks.push_back(engine.state().stack(r).tasks().to_vector());
    }
    end.relocations = engine.state().arena().relocations();
    end.compactions = engine.state().arena().compactions();
    return end;
  };
  const End base = run_with(1);
  EXPECT_TRUE(base.result.result.balanced);
  EXPECT_GT(base.round1_movers, m / 4);
  EXPECT_LT(base.round1_movers, 3 * m / 4);
  for (std::size_t threads : kThreadCounts) {
    const End other = run_with(threads);
    EXPECT_EQ(other.round1_movers, base.round1_movers) << threads;
    expect_identical(base.result, other.result, threads);
    EXPECT_EQ(other.loads, base.loads) << "threads=" << threads;
    EXPECT_EQ(other.stacks, base.stacks) << "threads=" << threads;
    EXPECT_EQ(other.relocations, base.relocations) << "threads=" << threads;
    EXPECT_EQ(other.compactions, base.compactions) << "threads=" << threads;
  }
}

TEST(EngineThreadsTest, GroupedEngineBitwiseIdenticalAcrossThreads) {
  // n = 2048 puts hundreds-to-thousands of resources over threshold in the
  // scatter rounds, spanning multiple kShardGrain = 512 resource shards.
  const Node n = 2048;
  const TaskSet ts = two_point_tasks(16384);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  const TracedRun base = run_grouped(ts, n, start, T, 1, 4242);
  EXPECT_TRUE(base.result.balanced);
  EXPECT_GT(base.result.migrations, 0u);
  for (std::size_t threads : kThreadCounts) {
    expect_identical(base, run_grouped(ts, n, start, T, threads, 4242),
                     threads);
  }
}

TEST(EngineThreadsTest, GroupedMatchesExactStreamForSameConfig) {
  // The two engines intentionally share the per-(round, shard) seeding
  // *scheme* but not the stream (binomials vs flat coins); this is just a
  // sanity check that both stay internally deterministic when mixed into
  // the same test binary (no hidden global state).
  const Node n = 16;
  const TaskSet ts = two_point_tasks(256);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.25 * ts.total_weight() / n + ts.max_weight();
  expect_identical(run_grouped(ts, n, start, T, 1, 5),
                   run_grouped(ts, n, start, T, 1, 5), 1);
  expect_identical(run_exact(ts, n, start, T, 1, 5),
                   run_exact(ts, n, start, T, 1, 5), 1);
}

TEST(EngineThreadsTest, EmptyOverloadedSetIsStableAcrossThreads) {
  // Balanced start: phase 1 has zero shards; step() must be a no-op with
  // identical (single-draw) stream consumption for every thread count.
  const Node n = 8;
  std::vector<double> w(64, 1.0);
  const TaskSet ts(std::move(w));
  Placement start(ts.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    start[i] = static_cast<Node>(i % n);
  }
  const double T = 2.0 * ts.total_weight() / n;  // comfortably above loads
  for (std::size_t threads : kThreadCounts) {
    UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.options.threads = threads;
    UserControlledEngine engine(ts, n, cfg);
    engine.reset(start);
    EXPECT_TRUE(engine.balanced());
    Rng rng(1);
    EXPECT_EQ(engine.step(rng), 0u) << "threads=" << threads;
    // The run loop never calls step() when balanced; a direct call must
    // leave the state untouched.
    EXPECT_TRUE(engine.balanced());
    const RunResult result = tlb::engine::drive(engine, rng);
    EXPECT_EQ(result.rounds, 0);
    EXPECT_TRUE(result.balanced);
  }
}

TEST(EngineThreadsTest, SingleOverloadedResourceAcrossThreads) {
  // One overloaded resource, fewer coins than one shard: the partition is a
  // single shard no matter how many workers exist.
  const Node n = 8;
  const TaskSet ts = continuous_tasks(64, 0x42);
  const Placement start = tlb::tasks::all_on_one(ts);
  const double T = 1.5 * ts.total_weight() / n + ts.max_weight();
  const TracedRun base = run_exact(ts, n, start, T, 1, 31);
  for (std::size_t threads : kThreadCounts) {
    expect_identical(base, run_exact(ts, n, start, T, threads, 31), threads);
  }
  const TracedRun gbase = run_grouped(two_point_tasks(64), n,
                                      all_on_one(two_point_tasks(64)),
                                      T, 1, 31);
  for (std::size_t threads : kThreadCounts) {
    expect_identical(gbase,
                     run_grouped(two_point_tasks(64), n,
                                 all_on_one(two_point_tasks(64)), T, threads,
                                 31),
                     threads);
  }
}

/// Bitwise comparison of everything a dynamic run produced: the aggregated
/// metrics plus the full end-state load vector.
void run_dynamic_and_compare(DynamicConfig cfg, long warmup, long measure,
                             std::uint64_t seed) {
  auto run_with = [&](std::size_t threads) {
    DynamicConfig c = cfg;
    c.threads = threads;
    DynamicUserEngine engine(c);
    Rng rng(seed);
    tlb::engine::DriveOptions opt;
    opt.warmup = warmup;
    opt.measure = measure;
    const DynamicMetrics metrics = engine.run(opt, rng);
    std::vector<double> loads(cfg.n);
    for (tlb::graph::Node r = 0; r < cfg.n; ++r) loads[r] = engine.load(r);
    return std::tuple(metrics.overloaded_fraction.mean(),
                      metrics.max_over_avg.mean(), metrics.population.mean(),
                      metrics.migrations_per_round.mean(), metrics.crashes,
                      metrics.arrivals, metrics.completions,
                      engine.total_weight(), engine.population(),
                      engine.current_threshold(), loads);
  };
  const auto base = run_with(1);
  EXPECT_GT(std::get<5>(base), 0u);  // arrivals happened
  for (std::size_t threads : kThreadCounts) {
    EXPECT_EQ(base, run_with(threads)) << "threads=" << threads;
  }
}

TEST(EngineThreadsTest, DynamicEngineBitwiseIdenticalAcrossThreads) {
  DynamicConfig cfg;
  cfg.n = 512;
  cfg.arrival_rate = 200.0;
  cfg.completion_rate = 0.05;
  cfg.crash_rate = 0.02;
  cfg.eps = 0.2;
  cfg.classes = {{1.0, 0.8}, {4.0, 0.15}, {16.0, 0.05}};
  run_dynamic_and_compare(cfg, /*warmup=*/100, /*measure=*/200, 1357);
}

TEST(EngineThreadsTest, DynamicHotspotManyOverloadedAcrossThreads) {
  // Hotspot arrivals keep the overloaded list non-trivial; n = 2048 with a
  // high arrival rate pushes it past one kShardGrain shard in early rounds.
  DynamicConfig cfg;
  cfg.n = 2048;
  cfg.arrival_rate = 4096.0;
  cfg.completion_rate = 0.01;
  cfg.hotspot_arrivals = true;
  cfg.eps = 0.2;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  run_dynamic_and_compare(cfg, /*warmup=*/30, /*measure=*/50, 2468);
}

}  // namespace
