// Tests for the dynamic/churn extension: steady state under arrivals and
// completions, hotspot absorption, crash fail-over, bookkeeping integrity
// under all event types combined, and bit identity with the grouped engine
// when churn is off.
#include "tlb/core/dynamic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb::core;
using tlb::util::Rng;

/// `warmup` unrecorded rounds, then `measure` recorded ones.
DynamicMetrics run_churn(DynamicUserEngine& engine, long warmup, long measure,
                         Rng& rng) {
  tlb::engine::DriveOptions opt;
  opt.warmup = warmup;
  opt.measure = measure;
  return engine.run(opt, rng);
}

DynamicConfig base_config() {
  DynamicConfig cfg;
  cfg.n = 100;
  cfg.arrival_rate = 20.0;
  cfg.completion_rate = 0.02;  // steady population ~ 1000
  cfg.eps = 0.2;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  return cfg;
}

TEST(DynamicTest, PopulationReachesSteadyState) {
  DynamicUserEngine engine(base_config());
  Rng rng(1);
  const auto metrics = run_churn(engine, /*warmup=*/2000, /*measure=*/2000, rng);
  // Steady state: arrivals/round == completions/round in expectation, so
  // population ~ rate/completion = 1000, within generous tolerance.
  EXPECT_NEAR(metrics.population.mean(), 1000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(metrics.arrivals),
              static_cast<double>(metrics.completions),
              0.2 * static_cast<double>(metrics.arrivals));
}

TEST(DynamicTest, UniformArrivalsKeepOverloadRare) {
  DynamicUserEngine engine(base_config());
  Rng rng(2);
  const auto metrics = run_churn(engine, 2000, 3000, rng);
  // With uniform arrivals and 20% headroom, overloaded resources should be
  // a small minority on average.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.10);
  EXPECT_LT(metrics.max_over_avg.mean(), 4.0);
}

TEST(DynamicTest, HotspotArrivalsAreAbsorbed) {
  DynamicConfig cfg = base_config();
  cfg.hotspot_arrivals = true;  // everything lands on resource 0
  DynamicUserEngine engine(cfg);
  Rng rng(3);
  const auto metrics = run_churn(engine, 2000, 3000, rng);
  // The protocol must keep draining the hotspot: overload stays confined to
  // ~the hotspot itself (1% of resources) and the system keeps moving tasks.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.05);
  EXPECT_GT(metrics.migrations_per_round.mean(), 1.0);
}

TEST(DynamicTest, CrashesAreRecoveredFrom) {
  DynamicConfig cfg = base_config();
  cfg.crash_rate = 0.05;  // a crash every ~20 rounds
  DynamicUserEngine engine(cfg);
  Rng rng(4);
  const auto metrics = run_churn(engine, 2000, 4000, rng);
  EXPECT_GT(metrics.crashes, 100u);  // the scenario actually exercised crashes
  // Scattered fail-over load is re-balanced: overload stays bounded.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.15);
}

TEST(DynamicTest, BookkeepingStaysConsistent) {
  DynamicConfig cfg = base_config();
  cfg.crash_rate = 0.1;
  DynamicUserEngine engine(cfg);
  Rng rng(5);
  for (int t = 0; t < 3000; ++t) engine.step(rng);
  // Recompute totals from per-resource loads.
  double total = 0.0;
  for (tlb::graph::Node r = 0; r < cfg.n; ++r) total += engine.load(r);
  EXPECT_NEAR(total, engine.total_weight(), 1e-6);
  EXPECT_GT(engine.population(), 0u);
}

TEST(DynamicTest, ThresholdTracksTotalWeight) {
  DynamicConfig cfg = base_config();
  cfg.completion_rate = 0.0;  // population only grows
  DynamicUserEngine engine(cfg);
  Rng rng(6);
  engine.step(rng);
  const double t_early = engine.current_threshold();
  for (int t = 0; t < 500; ++t) engine.step(rng);
  EXPECT_GT(engine.current_threshold(), t_early);
  EXPECT_NEAR(engine.current_threshold(),
              1.2 * engine.total_weight() / cfg.n + 8.0, 1e-9);
}

TEST(DynamicTest, ZeroRatesAreInert) {
  DynamicConfig cfg = base_config();
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  DynamicUserEngine engine(cfg);
  Rng rng(7);
  for (int t = 0; t < 50; ++t) engine.step(rng);
  EXPECT_EQ(engine.population(), 0u);
  EXPECT_DOUBLE_EQ(engine.total_weight(), 0.0);
}

TEST(DynamicTest, UnitCompletionRateEmptiesEveryRound) {
  // mu = 1: every task present after the round's arrivals completes in the
  // same round, so nothing is left for the protocol to move.
  DynamicConfig cfg = base_config();
  cfg.completion_rate = 1.0;
  DynamicUserEngine engine(cfg);
  // Checks every measured round's end state (after the window aggregates).
  struct EmptyEveryRound final : tlb::engine::RoundObserver {
    explicit EmptyEveryRound(const DynamicUserEngine& e) : engine(e) {}
    void on_round_end(const tlb::engine::BalancerView&, long round,
                      std::size_t migrations) override {
      EXPECT_EQ(migrations, 0u) << "round " << round;
      EXPECT_EQ(engine.population(), 0u) << "round " << round;
      EXPECT_EQ(engine.total_weight(), 0.0) << "round " << round;
    }
    const DynamicUserEngine& engine;
  } check(engine);
  Rng rng(8);
  tlb::engine::DriveOptions opt;
  opt.measure = 200;
  const DynamicMetrics metrics = engine.run(opt, rng, &check);
  EXPECT_EQ(metrics.population.count(), 200u);
  EXPECT_GT(metrics.arrivals, 0u);
  EXPECT_EQ(metrics.completions, metrics.arrivals);
  for (tlb::graph::Node r = 0; r < cfg.n; ++r) EXPECT_EQ(engine.load(r), 0.0);
}

TEST(DynamicTest, VanishingCompletionRatesCompleteNothing) {
  // The smallest positive rates DynamicConfig accepts. At the subnormal
  // 5e-324, 1 / log1p(-mu) is -inf: every gap draw is +inf, or NaN for
  // U = 1, and must clamp to the cap rather than be cast
  // (CompletionDrawTest.GapClampIsNanSafe pins the NaN case).
  for (const double mu : {std::numeric_limits<double>::denorm_min(), 1e-300}) {
    DynamicConfig cfg = base_config();
    cfg.completion_rate = mu;
    DynamicUserEngine engine(cfg);
    Rng rng(9);
    const auto metrics = run_churn(engine, /*warmup=*/0, /*measure=*/1000, rng);
    EXPECT_EQ(metrics.completions, 0u) << mu;
    EXPECT_GT(metrics.arrivals, 0u) << mu;
    EXPECT_EQ(engine.population(), metrics.arrivals) << mu;
  }
}

TEST(DynamicTest, RejectsBadConfig) {
  DynamicConfig cfg = base_config();
  cfg.n = 1;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.completion_rate = 1.5;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.completion_rate = -0.1;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.arrival_rate = -1.0;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.crash_rate = 1.5;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.eps = 0.0;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.alpha = -1.0;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes = {{0.5, 1.0}};  // weight < 1
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes.clear();
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
}

TEST(DynamicTest, RejectsNonFiniteRates) {
  // Ordered bounds let NaN through: with completion_rate = NaN the first
  // step() used to hang in the completion sampler, and an infinite arrival
  // rate asks for unboundedly many tasks per round.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    DynamicConfig cfg = base_config();
    cfg.arrival_rate = bad;
    EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument) << bad;
    cfg = base_config();
    cfg.completion_rate = bad;
    EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument) << bad;
    cfg = base_config();
    cfg.crash_rate = bad;
    EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument) << bad;
    cfg = base_config();
    cfg.eps = bad;
    EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument) << bad;
    cfg = base_config();
    cfg.alpha = bad;
    EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument) << bad;
  }
  // The closed ends of the ranges stay legal.
  DynamicConfig cfg = base_config();
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 1.0;
  cfg.crash_rate = 1.0;
  EXPECT_NO_THROW(DynamicUserEngine{cfg});
}

TEST(DynamicTest, RejectsNonFiniteClassWeights) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  DynamicConfig cfg = base_config();
  cfg.classes = {{kNan, 1.0}};
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes = {{kInf, 1.0}};
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes = {{2.0, kNan}};
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
}

TEST(DynamicTest, QuietRoundDoesNoFullRescan) {
  // Regression: recompute_threshold used to mark all n resources dirty every
  // round even when the recomputed threshold was numerically unchanged,
  // forcing overloaded_now() into an O(n) flush on quiet rounds. With no
  // arrivals, completions or crashes the threshold cannot move, so a step
  // must not trigger a single predicate re-check.
  DynamicConfig cfg = base_config();
  cfg.n = 50000;
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  cfg.crash_rate = 0.0;
  DynamicUserEngine engine(cfg);
  Rng rng(11);
  engine.step(rng);  // settle any construction-time dirt
  const std::uint64_t before = engine.overloaded_tracker().flush_checks();
  for (int t = 0; t < 10; ++t) engine.step(rng);
  EXPECT_EQ(engine.overloaded_tracker().flush_checks(), before);
}

TEST(DynamicTest, QuietRoundsAfterChurnStayIncremental) {
  // Arrivals only in the first round (via the arrival hook); once the
  // system settles and later rounds are quiet, the per-round threshold
  // recomputation lands on the same value and must not invalidate all n
  // resources again. The flush work of a quiet round is bounded by the
  // overloaded list it maintains, never the full resource count.
  DynamicConfig cfg = base_config();
  cfg.n = 20000;
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  cfg.arrival_fn = [](long round, tlb::util::Rng&) -> std::uint64_t {
    return round == 0 ? 40000u : 0u;
  };
  DynamicUserEngine engine(cfg);
  Rng rng(13);
  for (int t = 0; t < 200; ++t) engine.step(rng);
  if (engine.last_migrations() != 0 ||
      !engine.overloaded_tracker().items().empty()) {
    GTEST_SKIP() << "system not balanced after 200 rounds";
  }
  // Two fully quiet rounds (no arrivals, no migrations): zero re-checks.
  const std::uint64_t before = engine.overloaded_tracker().flush_checks();
  engine.step(rng);
  engine.step(rng);
  EXPECT_EQ(engine.overloaded_tracker().flush_checks(), before);
}

TEST(DynamicTest, ChangedThresholdReconcilesOnlyTheBand) {
  // Regression for the LoadIndex refactor: a round whose threshold *does*
  // move used to fall back to mark_all_dirty — an O(n) flush every churn
  // round. Now shift_threshold confines the invalidation to the band of
  // loads between the old and new value, so per-round flush work is
  // O(#touched + #band + #overloaded), far below n when only a handful of
  // tasks arrive or complete.
  DynamicConfig cfg = base_config();
  cfg.n = 50000;
  cfg.arrival_rate = 5.0;  // a few arrivals per round => W (and T) moves
  cfg.completion_rate = 0.001;
  cfg.crash_rate = 0.0;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  DynamicUserEngine engine(cfg);
  Rng rng(17);
  // Let the index arm itself (first shift builds it O(n) once) and the
  // population settle into a sparse-change regime.
  for (int t = 0; t < 50; ++t) engine.step(rng);
  ASSERT_TRUE(engine.overloaded_tracker().load_index().built());

  const std::uint64_t builds0 =
      engine.overloaded_tracker().load_index().rebuilds();
  const std::uint64_t checks0 = engine.overloaded_tracker().flush_checks();
  const int kRounds = 100;
  for (int t = 0; t < kRounds; ++t) engine.step(rng);
  const std::uint64_t checks =
      engine.overloaded_tracker().flush_checks() - checks0;
  // ~5 arrivals + a few completions + the band they shift per round: the
  // per-round average must be orders of magnitude below n = 50000. The
  // bound is loose (100x headroom over the ~10-20 observed) but fails
  // instantly if any churn round regresses to an O(n) rescan.
  EXPECT_LT(checks, static_cast<std::uint64_t>(kRounds) * 500u);
  // And the index itself never rebuilt: the engine mutates loads only
  // through mark_dirty, so every shift reconciles incrementally.
  EXPECT_EQ(engine.overloaded_tracker().load_index().rebuilds(), builds0);
}

TEST(DynamicTest, DenseChurnSweepsEveryRound) {
  // The dense side of the cut: 400 arrivals per round at n = 4096 already
  // exceed n/16 = 256 pending re-checks before the threshold moves, so
  // every move sweeps all n resources instead of visiting the band, and
  // the load index stays stale. Audits check every round's list against a
  // brute-force rescan.
  DynamicConfig cfg = base_config();
  cfg.n = 4096;
  cfg.arrival_rate = 400.0;
  cfg.completion_rate = 0.01;
  DynamicUserEngine engine(cfg);
  Rng rng(23);
  for (int t = 0; t < 100; ++t) {
    engine.step(rng);
    engine.audit();
  }
  const OverloadedSet& tracker = engine.overloaded_tracker();
  const std::uint64_t moves0 = tracker.load_index().bucket_moves();
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t sweeps0 = tracker.sweeps();
    const std::uint64_t checks0 = tracker.flush_checks();
    engine.step(rng);
    engine.audit();
    ASSERT_EQ(tracker.sweeps(), sweeps0 + 1) << "round " << t;
    // The sweep checks all n; the audit's own flush adds the resources
    // the round's apply touched.
    ASSERT_GE(tracker.flush_checks() - checks0, cfg.n) << "round " << t;
    ASSERT_FALSE(tracker.load_index().built()) << "round " << t;
  }
  EXPECT_EQ(tracker.load_index().bucket_moves(), moves0);
}

TEST(DynamicTest, BurstChurnCrossesTheCutUnderAudit) {
  // A churn-burst spec: 400 tasks land together every 50 rounds at
  // n = 1024, so burst rounds go dense and the rounds between them sparse
  // (each first sparse move rebuilding the stale index). Audits check every
  // round on both sides of the cut.
  const auto model = tlb::workload::parse_weight_model("bimodal(8,0.1)");
  const auto process =
      tlb::workload::parse_arrival_process("burst(50,400,0.02)");
  Rng class_rng(3);
  DynamicConfig cfg = tlb::workload::make_dynamic_config(
      *model, *process, /*n=*/1024, /*eps=*/0.2, /*alpha=*/1.0,
      /*threads=*/1, class_rng);
  DynamicUserEngine engine(cfg);
  Rng rng(29);
  for (int t = 0; t < 400; ++t) {
    ASSERT_NO_THROW(engine.step(rng));
    ASSERT_NO_THROW(engine.audit());
  }
  const OverloadedSet& tracker = engine.overloaded_tracker();
  EXPECT_GE(tracker.sweeps(), 8u);  // at least one per burst
  EXPECT_GT(tracker.load_index().band_size(), 0u);
  EXPECT_GE(tracker.load_index().rebuilds(), 8u);
}

/// The churn engine fed one hotspot burst of m tasks at round 0, with no
/// completions or crashes, is the grouped engine's all-on-one run of the
/// same tasks at the threshold the burst sets. Its round 0 draws one
/// uniform01 per arrival (the class) before the protocol step, so the
/// grouped engine's stream is a copy of the seed advanced past those draws,
/// which also replay the classes. Both must agree bit for bit every round.
/// At n = 2^14 the overloaded list outgrows one 512-resource sampler shard
/// after a few rounds, so four threads really split the sampling.
void expect_churn_off_matches_grouped(
    const std::vector<DynamicWeightClass>& classes, std::size_t threads) {
  constexpr tlb::graph::Node n = 1 << 14;
  constexpr std::uint64_t m = 16 * static_cast<std::uint64_t>(n);
  constexpr double eps = 0.05;
  constexpr std::uint64_t seed = 2024;

  DynamicConfig cfg;
  cfg.n = n;
  cfg.arrival_rate = 0.0;
  cfg.arrival_fn = [](long round, Rng&) -> std::uint64_t {
    return round == 0 ? m : 0;
  };
  cfg.completion_rate = 0.0;
  cfg.crash_rate = 0.0;
  cfg.hotspot_arrivals = true;
  cfg.eps = eps;
  cfg.alpha = 1.0;
  cfg.classes = classes;  // ascending, as the engine sorts them
  cfg.threads = threads;
  DynamicUserEngine churn(cfg);

  // The arrival class CDF, built as the engine builds it.
  double total_p = 0.0;
  for (const DynamicWeightClass& c : classes) total_p += c.probability;
  std::vector<double> cdf;
  double acc = 0.0;
  for (const DynamicWeightClass& c : classes) {
    acc += c.probability / total_p;
    cdf.push_back(acc);
  }
  cdf.back() = 1.0;
  Rng grouped_rng(seed);
  std::vector<double> weights(m);
  double total = 0.0;
  for (double& w : weights) {
    const double u = grouped_rng.uniform01();
    std::size_t cls = 0;
    while (cls + 1 < classes.size() && u > cdf[cls]) ++cls;
    w = classes[cls].weight;
    total += w;
  }
  const tlb::tasks::TaskSet ts(weights);
  const double w_max = classes.back().weight;
  UserProtocolConfig ucfg;
  ucfg.threshold = (1.0 + eps) * total / static_cast<double>(n) + w_max;
  ucfg.alpha = 1.0;
  ucfg.options.threads = threads;
  GroupedUserEngine grouped(ts, n, ucfg);
  // Every class drew at least one task, so both engines share the table.
  ASSERT_EQ(grouped.num_classes(), classes.size());
  ASSERT_EQ(ts.max_weight(), w_max);
  grouped.reset(tlb::tasks::all_on_one(ts, 0));

  Rng churn_rng(seed);
  for (int round = 0;; ++round) {
    ASSERT_LT(round, 1000) << "grouped engine not balanced";
    const std::size_t moved = grouped.step(grouped_rng);
    ASSERT_EQ(churn.step(churn_rng), moved) << "round " << round;
    ASSERT_EQ(churn.current_threshold(), ucfg.threshold) << "round " << round;
    for (tlb::graph::Node r = 0; r < n; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(churn.load(r)),
                std::bit_cast<std::uint64_t>(grouped.load(r)))
          << "round " << round << ", resource " << r;
    }
    ASSERT_EQ(churn_rng.state_hash(), grouped_rng.state_hash())
        << "round " << round;
    if (grouped.balanced()) break;
  }
  EXPECT_TRUE(churn.balanced());
  EXPECT_EQ(churn.population(), m);
}

TEST(DynamicTest, ChurnOffMatchesGroupedBitForBit) {
  const std::vector<DynamicWeightClass> two = {{1.0, 0.9}, {8.0, 0.1}};
  const std::vector<DynamicWeightClass> three = {
      {1.0, 0.7}, {3.0, 0.2}, {8.0, 0.1}};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    expect_churn_off_matches_grouped(two, threads);
    expect_churn_off_matches_grouped(three, threads);
  }
}

}  // namespace
