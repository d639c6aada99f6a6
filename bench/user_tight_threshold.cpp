// Experiment E4b — Theorem 12: user-controlled protocol with the tight
// threshold T = W/n + w_max on the complete graph:
// E[T] = 2·(n/α)·(w_max/w_min)·log m.
//
// The analysis needs α <= 1/(120 n), which makes the bound astronomically
// loose; the paper's own simulations use α = 1. We sweep n with α = 1.
// Finding: from the natural all-on-one start the measured time is ∝ log m
// and essentially *independent of n* — the bound's n/α factor comes from
// the worst-case "only one resource can accept" pigeonhole, which random
// trajectories never approach. This is exactly the gap behind the paper's
// closing open question about lower bounds for user-controlled migration.
#include <cmath>
#include <cstdio>

#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/sim/theory.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n_values", "32,64,128,256", "resource counts to sweep");
  cli.add_flag("load_factor", "10", "m = load_factor * n unit tasks");
  cli.add_flag("wmax", "4", "single heavy task weight (w_min = 1)");
  cli.add_flag("alpha", "1.0", "migration probability scale α");
  cli.add_flag("trials", "40", "trials per data point");
  cli.add_flag("seed", "121212", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const double alpha = cli.get_double("alpha");
  const double w_max = cli.get_double("wmax");

  sim::print_banner("Theorem 12 (E4b)",
                    "user-controlled, tight threshold W/n + w_max on the "
                    "complete graph: time scales like n·log m");
  sim::print_param("alpha", cli.get_string("alpha"));
  sim::print_param("weights", "one heavy task of weight " +
                                  cli.get_string("wmax") + ", rest units");
  sim::print_param("trials/point", std::to_string(trials));

  util::Table table({"n", "m", "balancing time (mean)", "ci95", "time/ln(m)",
                     "Thm12 bound (α=1/(120n))"});

  std::uint64_t point = 0;
  for (std::int64_t n_i : cli.get_int_list("n_values")) {
    ++point;
    const auto n = static_cast<graph::Node>(n_i);
    const std::size_t m =
        static_cast<std::size_t>(cli.get_int("load_factor")) * n;
    const tasks::TaskSet ts = tasks::single_heavy(m, w_max);
    const double T =
        core::threshold_value(core::ThresholdKind::kTightUser, ts, n);

    core::UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.alpha = alpha;

    const auto stats = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point),
        [&](util::Rng& rng) {
          core::GroupedUserEngine engine(ts, n, cfg);
          return engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                       {.max_rounds = 5000000});
        });

    const double lnm = std::log(static_cast<double>(m));
    const double analytic_alpha = 1.0 / (120.0 * static_cast<double>(n));
    const double bound = sim::theorem12_bound(n, analytic_alpha, w_max, 1.0, m);
    table.add_row({util::Table::fmt(n_i), util::Table::fmt(m),
                   util::Table::fmt(stats.rounds.mean(), 1),
                   util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(stats.rounds.mean() / lnm, 3),
                   util::Table::fmt(bound, 0)});
    if (stats.unbalanced > 0) {
      std::fprintf(stderr, "warning: %zu/%zu trials hit the round cap\n",
                   stats.unbalanced, trials);
    }
  }

  sim::emit_table(table, cli.get_string("csv"));
  sim::print_takeaway(
      "with α = 1 the protocol terminates under the tight threshold and "
      "the measured time is ∝ log m, nearly independent of n — orders of "
      "magnitude inside Theorem 12's 2(n/α)(w_max/w_min)·log m bound. The "
      "n/α factor reflects the worst-case single-acceptor pigeonhole, which "
      "random trajectories avoid; closing this gap is the paper's stated "
      "open problem on lower bounds.");
  return 0;
}
