// Experiment E3 — Observation 8: the Ω(H(G)·log m) lower bound for tight
// thresholds, on the clique-plus-satellite family (clique K_{n-1} plus one
// node attached by k edges; H(G) = Θ(n²/k)).
//
// Adversarial start (as in the paper's proof): every clique node holds W/n,
// the remaining tasks pile on clique node 0, the satellite starts empty.
// With m = Ω(n²) the clique's residual capacity (2·w_max per node) cannot
// absorb the pile, so Θ(m/n) tasks must funnel through the k satellite
// edges — balancing time scales like n²/k.
#include <cmath>
#include <cstdio>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/randomwalk/hitting.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/sim/theory.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "64", "number of resources (clique size n-1 + satellite)");
  cli.add_flag("m_factor", "3", "m = m_factor * n² unit tasks");
  cli.add_flag("k_values", "1,2,4,8,16,32", "satellite degrees to sweep");
  cli.add_flag("trials", "30", "trials per data point");
  cli.add_flag("seed", "888", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const std::size_t m =
      static_cast<std::size_t>(cli.get_int("m_factor")) * n * n;
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  sim::print_banner("Observation 8 (E3)",
                    "tight-threshold lower bound on the clique+satellite "
                    "family: time scales like H(G) = Θ(n²/k)");
  sim::print_param("n / m", std::to_string(n) + " / " + std::to_string(m));
  sim::print_param("start", "clique saturated at W/n, pile on clique node 0");
  sim::print_param("trials/point", std::to_string(trials));

  const tasks::TaskSet ts = tasks::uniform_unit(m);
  const double T =
      core::threshold_value(core::ThresholdKind::kTightResource, ts, n);
  const tasks::Placement start = tasks::observation8_adversarial(ts, n);

  util::Table table({"k", "H(G) (meas)", "n²/k·ln(m) shape",
                     "balancing time (mean)", "ci95", "time·k (flatness)"});

  std::vector<double> inv_k, times;
  std::uint64_t point = 0;
  for (std::int64_t k : cli.get_int_list("k_values")) {
    ++point;
    const graph::Graph g =
        graph::clique_plus_satellite(n, static_cast<graph::Node>(k));
    const randomwalk::TransitionModel walk(g);
    // The hard direction is hitting the satellite from the clique.
    randomwalk::GaussSeidelOptions gs;
    gs.tolerance = 1e-7;
    const auto h = randomwalk::hitting_times_to(walk, n - 1, gs);
    double H = 0.0;
    for (double v : h) H = std::max(H, v);

    core::ResourceProtocolConfig cfg;
    cfg.threshold = T;
    const auto stats = sim::run_trials(
        trials, util::derive_seed(cli.get_int("seed"), point),
        [&](util::Rng& rng) {
          core::ResourceControlledEngine engine(g, ts, cfg);
          return engine::reset_and_run(engine, start, rng,
                                       {.max_rounds = 5000000});
        });

    const double shape = sim::observation8_shape(
        n, static_cast<graph::Node>(k), ts.size());
    table.add_row({util::Table::fmt(k), util::Table::fmt(H, 1),
                   util::Table::fmt(shape, 0),
                   util::Table::fmt(stats.rounds.mean(), 1),
                   util::Table::fmt(stats.rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(stats.rounds.mean() * k, 0)});
    inv_k.push_back(1.0 / static_cast<double>(k));
    times.push_back(stats.rounds.mean());
  }
  sim::emit_table(table, cli.get_string("csv"));

  if (inv_k.size() >= 2) {
    const auto fit = util::fit_linear(inv_k, times);
    std::printf("\nlinear fit time ~ a + b/k: a=%.1f b=%.1f r2=%.4f\n",
                fit.intercept, fit.slope, fit.r2);
  }
  sim::print_takeaway(
      "balancing time grows as 1/k (the time·k column is near-constant and "
      "the 1/k fit has r² close to 1), matching the Ω(H(G)·log m) = "
      "Ω(n²/k·log m) lower bound of Observation 8.");
  return 0;
}
