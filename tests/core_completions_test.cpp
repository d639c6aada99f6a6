// Law checks for core::complete_tasks, the churn engine's completion pass
// (geometric skip-sampling over the flat slot order). It changed the
// canonical stream of every churn run, so instead of draw-for-draw
// identity these tests check the law:
//   * exact law: each slot's completions against the Binomial(k, mu) pmf
//     and the per-pass total against Binomial(sum k, mu), by chi-square
//     goodness of fit with bins pooled to an expected count of >= 5;
//   * old == new at the sampler level: two-sample KS against the per-slot
//     FixedBinomial sweep it replaced, kept below verbatim as the oracle;
//   * old == new at the engine level: two-sample KS of tlb_sim churn runs
//     against the same runs recorded with the per-slot sweep
//     (tests/law_fixtures/churn_poisson_n64.tsv);
//   * the same engine-level check for the graph user round, whose coins
//     moved to the exact engine's shard streams: graphuser and mixed runs
//     against runs recorded with the serial-coin graph engine
//     (tests/law_fixtures/{zipf_expander,octave_mixed}_n128.tsv);
//   * the draw count: exactly completions + 1 draws per pass for
//     0 < mu < 1, none for mu in {0, 1}.
// Every statistical check runs at level kAlpha = 1e-3 on seeds fixed before
// the first run.
#include "tlb/core/completions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tlb/util/binomial.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/workload/scenario.hpp"

namespace {

using tlb::core::complete_tasks;
using tlb::util::FixedBinomial;
using tlb::util::Rng;

constexpr double kAlpha = 1e-3;

/// The hand-built count vector: every k in {0, 1, 2, 9, 40, 1000, 70000},
/// read as n = 4 resources x C = 2 classes by the per-slot oracle.
const std::vector<std::uint32_t> kCounts = {9, 0, 1000, 1, 70000, 2, 0, 40};
constexpr std::size_t kResources = 4;
constexpr std::size_t kClasses = 2;

std::uint64_t total_tasks() {
  return std::accumulate(kCounts.begin(), kCounts.end(), std::uint64_t{0});
}

struct RateCase {
  double mu;
  std::size_t law_passes;  ///< exact-law check: enough for >= 2 bins at k = 1
  std::size_t ks_passes;   ///< old == new check, per side
  std::uint64_t seed;
};

constexpr RateCase kRates[] = {
    {1e-6, 10'000'000, 20'000, 0xc0de01},
    {0.01, 20'000, 5'000, 0xc0de02},
    {0.3, 2'000, 1'000, 0xc0de03},
    {0.9, 1'000, 500, 0xc0de04},
};

/// One pass of the new sampler over `counts` reset to kCounts: per-slot
/// completions into `done` (zeros included), the total returned. Also
/// checks the pass's own bookkeeping, adding to `bad` for each violation:
/// counts must drop by exactly the reported completions, reported in
/// ascending slot order, never a zero.
std::uint64_t skip_pass(Rng& rng, double mu, std::vector<std::uint32_t>& counts,
                        std::vector<std::uint32_t>& done, std::uint64_t& bad) {
  counts = kCounts;
  done.assign(counts.size(), 0);
  std::size_t next_slot = 0;
  const std::uint64_t total = complete_tasks(
      rng, mu, counts, [&](std::size_t slot, std::uint32_t d) {
        bad += slot < next_slot || d == 0 ? 1 : 0;
        next_slot = slot + 1;
        done[slot] = d;
      });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    bad += counts[i] + done[i] != kCounts[i] ? 1 : 0;
  }
  return total;
}

/// DynamicUserEngine::do_completions as it was before skip-sampling, kept
/// verbatim as the oracle, with the engine state it updated reduced to the
/// per-slot completions it records. `completion_` was
/// FixedBinomial(mu, Table::kOn) there; that table was draw-for-draw
/// identical to the untabled sampler used here.
std::uint64_t per_slot_sweep(Rng& rng, const FixedBinomial& completion_,
                             std::vector<std::uint32_t>& done) {
  std::vector<std::uint32_t> counts_ = kCounts;
  done.assign(counts_.size(), 0);
  const std::size_t C = kClasses;
  std::uint64_t total_done = 0;
  for (std::size_t r = 0; r < kResources; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      auto& slot = counts_[static_cast<std::size_t>(r) * C + c];
      if (slot == 0) continue;
      const auto done_rc = static_cast<std::uint32_t>(completion_(rng, slot));
      if (done_rc == 0) continue;
      slot -= done_rc;
      done[static_cast<std::size_t>(r) * C + c] = done_rc;
      total_done += done_rc;
    }
  }
  return total_done;
}

/// Chi-square goodness of fit of `hist` (hist[j] = passes with outcome j)
/// against the Binomial(k, mu) pmf. Bins are pooled left to right until
/// each expects >= 5; a short remainder joins the last bin. Returns the
/// p-value; fails the test if pooling leaves fewer than two bins, so a
/// vacuous check can never pass silently.
double binomial_gof(const std::vector<std::uint64_t>& hist, std::uint64_t k,
                    double mu) {
  const std::uint64_t passes =
      std::accumulate(hist.begin(), hist.end(), std::uint64_t{0});
  const auto nd = static_cast<double>(k);
  const double log_mu = std::log(mu);
  const double log_q = std::log1p(-mu);
  std::vector<double> expected;
  std::vector<double> observed;
  double e_acc = 0.0;
  double o_acc = 0.0;
  for (std::uint64_t j = 0; j <= k; ++j) {
    const auto jd = static_cast<double>(j);
    const double log_pmf = std::lgamma(nd + 1.0) - std::lgamma(jd + 1.0) -
                           std::lgamma(nd - jd + 1.0) + jd * log_mu +
                           (nd - jd) * log_q;
    e_acc += static_cast<double>(passes) * std::exp(log_pmf);
    o_acc += j < hist.size() ? static_cast<double>(hist[j]) : 0.0;
    if (e_acc >= 5.0) {
      expected.push_back(e_acc);
      observed.push_back(o_acc);
      e_acc = 0.0;
      o_acc = 0.0;
    }
  }
  if (!expected.empty()) {
    expected.back() += e_acc;
    observed.back() += o_acc;
  }
  EXPECT_GE(expected.size(), 2u) << "vacuous check: k=" << k << " mu=" << mu;
  if (expected.size() < 2) return 0.0;
  double stat = 0.0;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    const double diff = observed[b] - expected[b];
    stat += diff * diff / expected[b];
  }
  return tlb::util::chi_square_q(stat, static_cast<double>(expected.size() - 1));
}

TEST(CompletionLawTest, SlotsAndTotalFollowTheBinomialLaw) {
  const std::uint64_t all = total_tasks();
  for (const RateCase& rc : kRates) {
    Rng rng(rc.seed);
    std::vector<std::vector<std::uint64_t>> slot_hist(kCounts.size());
    for (std::size_t i = 0; i < kCounts.size(); ++i) {
      slot_hist[i].assign(kCounts[i] + 1, 0);
    }
    std::vector<std::uint64_t> total_hist(all + 1, 0);
    std::vector<std::uint32_t> counts;
    std::vector<std::uint32_t> done;
    std::uint64_t bad = 0;
    for (std::size_t pass = 0; pass < rc.law_passes; ++pass) {
      const std::uint64_t total = skip_pass(rng, rc.mu, counts, done, bad);
      ++total_hist[total];
      for (std::size_t i = 0; i < kCounts.size(); ++i) ++slot_hist[i][done[i]];
    }
    EXPECT_EQ(bad, 0u) << "bookkeeping, mu=" << rc.mu;
    for (std::size_t i = 0; i < kCounts.size(); ++i) {
      if (kCounts[i] == 0) {
        EXPECT_EQ(slot_hist[i][0], rc.law_passes) << "empty slot " << i;
        continue;
      }
      const double p = binomial_gof(slot_hist[i], kCounts[i], rc.mu);
      EXPECT_GT(p, kAlpha) << "slot " << i << " k=" << kCounts[i]
                           << " mu=" << rc.mu;
    }
    const double p = binomial_gof(total_hist, all, rc.mu);
    EXPECT_GT(p, kAlpha) << "total, mu=" << rc.mu;
  }
}

TEST(CompletionLawTest, MatchesThePerSlotSweep) {
  for (const RateCase& rc : kRates) {
    const FixedBinomial completion(rc.mu);
    Rng old_rng(rc.seed ^ 0x01d0);
    Rng new_rng(rc.seed ^ 0x0e70);
    std::vector<std::vector<double>> old_slots(kCounts.size());
    std::vector<std::vector<double>> new_slots(kCounts.size());
    std::vector<double> old_totals;
    std::vector<double> new_totals;
    std::vector<std::uint32_t> counts;
    std::vector<std::uint32_t> done;
    std::uint64_t bad = 0;
    for (std::size_t pass = 0; pass < rc.ks_passes; ++pass) {
      old_totals.push_back(
          static_cast<double>(per_slot_sweep(old_rng, completion, done)));
      for (std::size_t i = 0; i < kCounts.size(); ++i) {
        old_slots[i].push_back(done[i]);
      }
      new_totals.push_back(
          static_cast<double>(skip_pass(new_rng, rc.mu, counts, done, bad)));
      for (std::size_t i = 0; i < kCounts.size(); ++i) {
        new_slots[i].push_back(done[i]);
      }
    }
    EXPECT_EQ(bad, 0u) << "bookkeeping, mu=" << rc.mu;
    const auto totals = tlb::util::ks_two_sample(old_totals, new_totals);
    EXPECT_GT(totals.p_value, kAlpha)
        << "totals, mu=" << rc.mu << " D=" << totals.d;
    for (std::size_t i = 0; i < kCounts.size(); ++i) {
      if (kCounts[i] == 0) continue;
      const auto slot = tlb::util::ks_two_sample(old_slots[i], new_slots[i]);
      EXPECT_GT(slot.p_value, kAlpha) << "slot " << i << " k=" << kCounts[i]
                                      << " mu=" << rc.mu << " D=" << slot.d;
    }
  }
}

/// A recorded law fixture (tests/law_fixtures/<name>): one row per seed
/// 1, 2, ..., each the seed and `columns` numbers, returned column by
/// column.
std::vector<std::vector<double>> read_fixture(const std::string& name,
                                              std::size_t columns) {
  std::ifstream in(std::string(TLB_SOURCE_DIR) + "/tests/law_fixtures/" +
                   name);
  EXPECT_TRUE(in.good()) << "cannot read " << name;
  std::vector<std::vector<double>> out(columns);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::uint64_t seed = 0;
    row >> seed;
    EXPECT_EQ(seed, out[0].size() + 1) << "rows are seeds 1, 2, ...";
    for (std::vector<double>& column : out) {
      double x = 0.0;
      row >> x;
      column.push_back(x);
    }
    EXPECT_FALSE(row.fail()) << line;
  }
  return out;
}

TEST(CompletionLawTest, EngineMatchesTheRecordedPerSlotRuns) {
  // Columns: migrations, final max load, as tlb_sim --json reports them
  // for a one-trial churn-poisson run.
  const std::vector<std::vector<double>> recorded =
      read_fixture("churn_poisson_n64.tsv", 2);
  const std::vector<double>& old_migrations = recorded[0];
  const std::vector<double>& old_max = recorded[1];
  ASSERT_EQ(old_migrations.size(), 200u);
  tlb::workload::ScenarioParams params;  // tlb_sim's defaults
  params.n = 64;
  params.warmup = 200;
  params.measure = 400;
  const tlb::workload::Scenario scenario(
      tlb::workload::resolve_scenario("churn-poisson"), params);
  std::vector<double> new_migrations, new_max;
  for (std::uint64_t seed = 1; seed <= old_migrations.size(); ++seed) {
    const auto result = scenario.run(/*trials=*/1, seed, /*threads=*/1);
    new_migrations.push_back(result.stats.migrations.mean());
    new_max.push_back(result.stats.final_max_load.mean());
  }
  // The stream changed, so the runs themselves must differ...
  EXPECT_NE(old_migrations, new_migrations);
  // ...but not their law.
  const auto mig = tlb::util::ks_two_sample(old_migrations, new_migrations);
  EXPECT_GT(mig.p_value, kAlpha) << "migrations D=" << mig.d;
  const auto max = tlb::util::ks_two_sample(old_max, new_max);
  EXPECT_GT(max.p_value, kAlpha) << "final max load D=" << max.d;
}

TEST(UserRoundLawTest, GraphEnginesMatchTheRecordedSerialCoinRuns) {
  // graphuser and mixed(0.5) moved from the serial-coin graph engine
  // (coins on the caller's stream) to the exact engine's graph
  // constructor (coins on its shard streams). Each fixture holds 200
  // one-trial runs recorded before the move, columns rounds, migrations
  // and final max load; KS per column at kAlpha, Bonferroni-corrected
  // over the 2 x 3 columns.
  constexpr double kColumnAlpha = kAlpha / 6;
  const char* const kColumns[] = {"rounds", "migrations", "final max load"};
  const std::pair<const char*, const char*> kFixtures[] = {
      {"zipf-expander", "zipf_expander_n128.tsv"},
      {"octave-mixed", "octave_mixed_n128.tsv"}};
  for (const auto& [scenario_name, fixture] : kFixtures) {
    const std::vector<std::vector<double>> recorded = read_fixture(fixture, 3);
    ASSERT_EQ(recorded[0].size(), 200u) << fixture;
    tlb::workload::ScenarioParams params;  // tlb_sim's defaults
    params.n = 128;
    const tlb::workload::Scenario scenario(
        tlb::workload::resolve_scenario(scenario_name), params);
    std::vector<std::vector<double>> now(3);
    for (std::uint64_t seed = 1; seed <= recorded[0].size(); ++seed) {
      const auto result = scenario.run(/*trials=*/1, seed, /*threads=*/1);
      now[0].push_back(result.stats.rounds.mean());
      now[1].push_back(result.stats.migrations.mean());
      now[2].push_back(result.stats.final_max_load.mean());
    }
    // The stream changed, so the runs themselves must differ...
    EXPECT_NE(recorded, now) << scenario_name;
    // ...but not their law.
    for (std::size_t c = 0; c < 3; ++c) {
      const auto ks = tlb::util::ks_two_sample(recorded[c], now[c]);
      EXPECT_GT(ks.p_value, kColumnAlpha)
          << scenario_name << " " << kColumns[c] << " D=" << ks.d
          << " p=" << ks.p_value;
    }
  }
}

TEST(CompletionDrawTest, DrawsOncePerCompletionPlusOne) {
  for (const double mu :
       {5e-324, 1e-6, 0.01, 0.3, 0.9, std::nextafter(1.0, 0.0)}) {
    Rng rng(7);
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    for (int pass = 0; pass < 20; ++pass) {
      std::vector<std::uint32_t> counts = kCounts;
      draws = 0;
      const std::uint64_t total =
          complete_tasks(rng, mu, counts, [](std::size_t, std::uint32_t) {});
      EXPECT_EQ(draws, total + 1) << "mu=" << mu;
    }
    // No tasks at all: the first gap is still drawn, then discarded.
    std::vector<std::uint32_t> empty(5, 0);
    draws = 0;
    EXPECT_EQ(complete_tasks(rng, mu, empty,
                             [](std::size_t, std::uint32_t) {
                               ADD_FAILURE() << "nothing to complete";
                             }),
              0u);
    EXPECT_EQ(draws, 1u) << "mu=" << mu;
  }
}

TEST(CompletionDrawTest, GapClampIsNanSafe) {
  using tlb::core::detail::completion_gap;
  using tlb::core::detail::kMaxCompletionGap;
  // mu = 5e-324: 1 / log1p(-mu) is -inf, so u = 1 gives 0 * -inf = NaN
  // (and every other u gives +inf). Both must take the cap; a cast of NaN
  // is undefined behaviour, which -fsanitize=float-cast-overflow reports.
  const double tiny =
      1.0 / std::log1p(-std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(std::isinf(tiny));
  EXPECT_EQ(completion_gap(1.0, tiny), kMaxCompletionGap);
  EXPECT_EQ(completion_gap(std::nextafter(1.0, 0.0), tiny), kMaxCompletionGap);
  EXPECT_EQ(completion_gap(0x1p-53, tiny), kMaxCompletionGap);
  // mu = 1e-300 stays finite but far past the cap.
  EXPECT_EQ(completion_gap(0.5, 1.0 / std::log1p(-1e-300)), kMaxCompletionGap);
  // An ordinary rate floors log u / log(1 - mu); u = 1 is the zero gap.
  const double half = 1.0 / std::log1p(-0.5);
  EXPECT_EQ(completion_gap(1.0, half), 0u);
  EXPECT_EQ(completion_gap(0.3, half), 1u);  // 1.74
  EXPECT_EQ(completion_gap(0.1, half), 3u);  // 3.32
  EXPECT_EQ(completion_gap(1e-6, half), 19u);  // 19.93
}

TEST(CompletionDrawTest, DegenerateRatesDrawNothing) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double mu : {0.0, -0.5, kNan}) {
    Rng rng(8);
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    std::vector<std::uint32_t> counts = kCounts;
    EXPECT_EQ(complete_tasks(rng, mu, counts,
                             [](std::size_t, std::uint32_t) {
                               ADD_FAILURE() << "nothing completes";
                             }),
              0u);
    EXPECT_EQ(counts, kCounts);
    EXPECT_EQ(draws, 0u) << "mu=" << mu;
  }
  for (const double mu : {1.0, 2.0}) {
    Rng rng(9);
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    std::vector<std::uint32_t> counts = kCounts;
    std::vector<std::uint32_t> done(counts.size(), 0);
    EXPECT_EQ(complete_tasks(rng, mu, counts,
                             [&done](std::size_t slot, std::uint32_t d) {
                               done[slot] = d;
                             }),
              total_tasks());
    EXPECT_EQ(done, kCounts);
    EXPECT_EQ(counts, std::vector<std::uint32_t>(kCounts.size(), 0));
    EXPECT_EQ(draws, 0u) << "mu=" << mu;
  }
}

}  // namespace
