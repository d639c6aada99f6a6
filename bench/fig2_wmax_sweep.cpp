// Reproduces Figure 2: user-controlled protocol with a single heavy task;
// normalized balancing time (rounds / log m) as a function of m for
// w_max ∈ {1, 2, 4, ..., 256}.
//
// Paper setup (Section 7): n = 1000, ε = 0.2, α = 1, one task of weight
// w_max plus m−1 unit tasks, all on one resource initially, 1000 trials per
// point. Expected shape: each w_max series is flat in m (time ∝ log m), and
// the series height grows ≈ linearly with w_max — Theorem 11's
// O((w_max/w_min)·log m) is tight up to constants.
#include <cmath>
#include <cstdio>

#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"
#include "tlb/workload/weight_models.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "1000", "number of resources");
  cli.add_flag("trials", "100",
               "trials per data point (paper: 1000; reduced default)");
  cli.add_flag("eps", "0.2", "threshold slack ε");
  cli.add_flag("alpha", "1.0", "migration probability scale α");
  cli.add_flag("wmax_values", "1,2,4,8,16,32,64,128,256",
               "heavy-task weights to sweep");
  cli.add_flag("m_values", "500,1000,1500,2000,2500,3000,3500,4000,4500,5000",
               "task counts to sweep");
  cli.add_flag("seed", "20150526", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const double eps = cli.get_double("eps");
  const double alpha = cli.get_double("alpha");

  sim::print_banner("Figure 2",
                    "normalized balancing time vs m for one heavy task "
                    "(user-controlled, complete graph)");
  sim::print_param("n", std::to_string(n));
  sim::print_param("eps / alpha", cli.get_string("eps") + " / " + cli.get_string("alpha"));
  sim::print_param("trials/point", std::to_string(trials));
  sim::print_param("normalization", "rounds / log2(m), as in the paper's y-axis");

  util::Table table({"w_max", "m", "balancing time (mean)", "ci95",
                     "time/log2(m)"});

  // For the per-w_max takeaway we track the average normalized height.
  std::vector<std::pair<double, double>> heights;  // (w_max, mean height)

  std::uint64_t point = 0;
  for (std::int64_t w_max : cli.get_int_list("wmax_values")) {
    util::Welford height;
    for (std::int64_t m : cli.get_int_list("m_values")) {
      ++point;
      // Figure 2's single-heavy profile is twopoint(1, w_max) in the
      // workload subsystem's grammar.
      const workload::TwoPointWeights model(1, static_cast<double>(w_max));
      util::Rng model_rng(0);  // twopoint's composition is deterministic
      const tasks::TaskSet ts =
          model.make(static_cast<std::size_t>(m), model_rng);
      const double T = core::threshold_value(
          core::ThresholdKind::kAboveAverage, ts, n, eps);

      core::UserProtocolConfig cfg;
      cfg.threshold = T;
      cfg.alpha = alpha;

      const auto stats = sim::run_trials(
          trials, util::derive_seed(cli.get_int("seed"), point),
          [&](util::Rng& rng) {
            core::GroupedUserEngine engine(ts, n, cfg);
            return engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                         {.max_rounds = 1000000});
          });

      const double log2m = std::log2(static_cast<double>(m));
      const double norm = stats.rounds.mean() / log2m;
      height.add(norm);
      table.add_row({util::Table::fmt(w_max), util::Table::fmt(m),
                     util::Table::fmt(stats.rounds.mean(), 1),
                     util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                     util::Table::fmt(norm, 2)});
      if (stats.unbalanced > 0) {
        std::fprintf(stderr, "warning: %zu/%zu trials hit the round cap\n",
                     stats.unbalanced, trials);
      }
    }
    heights.emplace_back(static_cast<double>(w_max), height.mean());
  }

  sim::emit_table(table, cli.get_string("csv"));

  // Linearity check: fit normalized height vs w_max.
  std::vector<double> xs, ys;
  for (auto [w, h] : heights) {
    xs.push_back(w);
    ys.push_back(h);
  }
  if (xs.size() >= 2) {
    const auto fit = util::fit_linear(xs, ys);
    std::printf("\nper-w_max normalized heights (series flatness in m):\n");
    for (auto [w, h] : heights) {
      std::printf("   w_max=%4.0f  mean time/log2(m) = %.2f\n", w, h);
    }
    std::printf("linear fit height ~ a + b*w_max: a=%.2f b=%.3f r2=%.4f\n",
                fit.intercept, fit.slope, fit.r2);
  }
  sim::print_takeaway(
      "each w_max series is flat in m (time ∝ log m) and the series height "
      "grows near-linearly in w_max (r² close to 1) — Theorem 11's "
      "O((w_max/w_min)·log m) bound is tight up to constants, as Figure 2 "
      "suggests.");
  return 0;
}
