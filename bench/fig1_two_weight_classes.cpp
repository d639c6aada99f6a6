// Reproduces Figure 1: user-controlled protocol, balancing time as a
// function of the total weight W for different numbers k of heavy tasks.
//
// Paper setup (Section 7): n = 1000 resources (complete graph), ε = 0.2,
// α = 1, w_min = 1, w_max = 50, k ∈ {1, 5, 10, 20, 50} tasks of weight 50,
// m(W,k) = W − 50k unit tasks, W swept from 2000 to 10000, all tasks
// initially on one resource, each point averaged over 1000 trials.
//
// Expected shape: balancing time ≈ proportional to log(m(W,k)+k) and nearly
// independent of k — the curves for different k overlap.
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
               "trials per data point (paper: 1000; default reduced so the "
               "full suite runs in minutes — the mean is stable well before "
               "1000 trials)");
  cli.add_flag("eps", "0.2", "threshold slack ε");
  cli.add_flag("alpha", "1.0", "migration probability scale α");
  cli.add_flag("wmax", "50", "heavy-task weight");
  cli.add_flag("k_values", "1,5,10,20,50", "numbers of heavy tasks");
  cli.add_flag("w_values", "2000,3000,4000,5000,6000,7000,8000,9000,10000",
               "total weights W");
  cli.add_flag("seed", "20150525", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const double eps = cli.get_double("eps");
  const double alpha = cli.get_double("alpha");
  const double w_max = cli.get_double("wmax");

  sim::print_banner("Figure 1",
                    "balancing time vs W for k heavy tasks (user-controlled, "
                    "complete graph)");
  sim::print_param("n", std::to_string(n));
  sim::print_param("eps / alpha", cli.get_string("eps") + " / " + cli.get_string("alpha"));
  sim::print_param("w_max", cli.get_string("wmax"));
  sim::print_param("trials/point", std::to_string(trials));
  sim::print_param("initial placement", "all tasks on resource 0");

  util::Table table({"k", "W", "m(W,k)+k", "ln(m)", "balancing time (mean)",
                     "ci95", "time/ln(m)"});

  std::uint64_t point = 0;
  for (std::int64_t k : cli.get_int_list("k_values")) {
    for (std::int64_t W : cli.get_int_list("w_values")) {
      ++point;
      const double heavy_weight = static_cast<double>(k) * w_max;
      if (static_cast<double>(W) < heavy_weight + 1.0) continue;  // no room for units
      // Figure 1's profile through the workload subsystem: k heavies of
      // weight w_max plus m(W,k) = W - k*w_max unit tasks.
      const workload::TwoPointWeights model(static_cast<std::size_t>(k),
                                            w_max);
      const auto unit_count = static_cast<std::size_t>(
          std::llround(static_cast<double>(W) - heavy_weight));
      util::Rng model_rng(0);  // twopoint's composition is deterministic
      const tasks::TaskSet ts =
          model.make(unit_count + static_cast<std::size_t>(k), model_rng);
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

      const double lnm = std::log(static_cast<double>(ts.size()));
      table.add_row({util::Table::fmt(k), util::Table::fmt(W),
                     util::Table::fmt(ts.size()), util::Table::fmt(lnm, 2),
                     util::Table::fmt(stats.rounds.mean(), 1),
                     util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                     util::Table::fmt(stats.rounds.mean() / lnm, 2)});
      if (stats.unbalanced > 0) {
        std::fprintf(stderr, "warning: %zu/%zu trials hit the round cap\n",
                     stats.unbalanced, trials);
      }
    }
  }

  sim::emit_table(table, cli.get_string("csv"));
  sim::print_takeaway(
      "the time/ln(m) column is nearly constant within each k and the "
      "columns for different k agree closely — balancing time is "
      "logarithmic in m and essentially independent of the number of heavy "
      "tasks, matching Figure 1.");
  return 0;
}
