// Experiment E10 — the sequential threshold baseline (Berenbrink et al. [5]):
// balls retry uniform bins until one fits under the threshold. The key
// claim: with threshold ceil(m/n)+1 (units) / W/n + w_max (weighted), total
// choices stay O(m) — i.e. choices/m is a constant independent of m — while
// the max load is within one ball of optimal. Also sweeps the threshold
// slack to show the choices blow-up as the threshold approaches exact
// capacity (coupon-collector regime).
#include <cmath>
#include <cstdio>

#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "100", "number of bins");
  cli.add_flag("m_values", "1000,2000,4000,8000,16000,32000",
               "ball counts (panel a)");
  cli.add_flag("slacks", "0,1,2,4,8", "threshold slack above ceil(m/n) (panel b)");
  cli.add_flag("trials", "30", "trials per data point");
  cli.add_flag("seed", "1122", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  sim::print_banner("Sequential thresholds (E10)",
                    "retry-until-fits allocation [5]: O(m) choices at "
                    "threshold ceil(m/n)+1");
  sim::print_param("n", std::to_string(n));
  sim::print_param("trials/point", std::to_string(trials));

  // ---- Panel (a): choices/m vs m at the [5] threshold ------------------
  util::Table table({"m", "threshold", "choices/m (mean)", "ci95",
                     "max load (mean)", "opt ceil(m/n)"});
  std::uint64_t point = 0;
  for (std::int64_t m : cli.get_int_list("m_values")) {
    ++point;
    const tasks::TaskSet ts =
        tasks::uniform_unit(static_cast<std::size_t>(m));
    const double threshold =
        std::ceil(static_cast<double>(m) / n) + 1.0;
    util::Welford per_ball, max_load;
    for (std::size_t t = 0; t < trials; ++t) {
      util::Rng rng(util::derive_seed(cli.get_int("seed") + point, t));
      engine::SequentialThresholdBalancer balancer(ts, n, threshold);
      balancer.step(rng);
      if (!balancer.completed()) continue;
      per_ball.add(static_cast<double>(balancer.choices()) /
                   static_cast<double>(m));
      max_load.add(balancer.max_load());
    }
    table.add_row({util::Table::fmt(m), util::Table::fmt(threshold, 0),
                   util::Table::fmt(per_ball.mean(), 3),
                   util::Table::fmt(per_ball.ci95_halfwidth(), 3),
                   util::Table::fmt(max_load.mean(), 1),
                   util::Table::fmt(std::ceil(static_cast<double>(m) / n), 0)});
  }
  sim::emit_table(table, cli.get_string("csv"));

  // ---- Panel (b): slack sweep at fixed m -------------------------------
  const std::int64_t m_fixed = 10000;
  std::printf("\nslack sweep at m = %lld (threshold = ceil(m/n) + slack):\n",
              static_cast<long long>(m_fixed));
  util::Table slack_table({"slack", "choices/m (mean)", "ci95"});
  const tasks::TaskSet ts_fixed =
      tasks::uniform_unit(static_cast<std::size_t>(m_fixed));
  for (std::int64_t slack : cli.get_int_list("slacks")) {
    ++point;
    const double threshold =
        std::ceil(static_cast<double>(m_fixed) / n) + static_cast<double>(slack);
    util::Welford per_ball;
    for (std::size_t t = 0; t < trials; ++t) {
      util::Rng rng(util::derive_seed(cli.get_int("seed") + point, t));
      engine::SequentialThresholdBalancer balancer(ts_fixed, n, threshold);
      balancer.step(rng);
      if (!balancer.completed()) continue;
      per_ball.add(static_cast<double>(balancer.choices()) /
                   static_cast<double>(m_fixed));
    }
    slack_table.add_row({util::Table::fmt(slack),
                         util::Table::fmt(per_ball.mean(), 3),
                         util::Table::fmt(per_ball.ci95_halfwidth(), 3)});
  }
  std::printf("%s", slack_table.to_ascii().c_str());

  sim::print_takeaway(
      "choices/m is a small constant independent of m at threshold "
      "ceil(m/n)+1 (the [5] claim) with max load within one ball of "
      "optimal; removing the +1 slack sends choices/m into the "
      "coupon-collector regime — the threshold slack is exactly what makes "
      "threshold-based allocation cheap.");
  return 0;
}
