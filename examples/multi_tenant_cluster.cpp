// Example: a multi-tenant cluster with heterogeneous machines — the
// non-uniform-threshold extension end-to-end.
//
// Scenario: 120 machines in three hardware generations (speeds 1x, 2x, 4x);
// 1500 container workloads of mixed sizes land on the newest rack (ops
// deploys to the shiny machines first). Thresholds are speed-proportional,
// so each machine's cap reflects its capacity share. The user-controlled
// protocol rebalances; we print the per-generation load before and after,
// plus a load histogram to show every machine finishing under its own cap.
#include <cstdio>
#include <vector>

#include "tlb/core/hetero.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/histogram.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/weight_models.hpp"

int main() {
  using namespace tlb;

  const graph::Node machines = 120;
  const graph::Node gen3 = 24;   // 4x speed
  const graph::Node gen2 = 40;   // 2x speed, ids [gen3, gen3+gen2)
  util::Rng rng(77);

  // Three-generation speed profile.
  core::SpeedProfile speeds(machines, 1.0);
  for (graph::Node v = 0; v < gen3; ++v) speeds[v] = 4.0;
  for (graph::Node v = gen3; v < gen3 + gen2; ++v) speeds[v] = 2.0;

  // Container workloads: mixed CPU weights from the workload subsystem's
  // heavy-tailed model.
  const tasks::TaskSet jobs =
      workload::parse_weight_model("pareto(2.5,12)")->make(1500, rng);

  // Speed-proportional thresholds with 25% headroom.
  const auto caps = core::speed_proportional_thresholds(
      jobs, speeds, core::ThresholdKind::kAboveAverage, 0.25);
  std::printf("cluster: %u machines (24@4x, 40@2x, 56@1x), %zu jobs, "
              "total %.0f CPU\n",
              machines, jobs.size(), jobs.total_weight());
  std::printf("caps: gen3 %.1f, gen2 %.1f, gen1 %.1f (feasible: %s)\n",
              caps[0], caps[gen3], caps[gen3 + gen2],
              core::thresholds_feasible(jobs, caps) ? "yes" : "no");

  // Everything deploys to the gen3 rack initially (round robin over it).
  const tasks::Placement start = tasks::round_robin(jobs, machines, gen3);

  core::UserProtocolConfig cfg;
  cfg.threshold = caps;
  cfg.alpha = 1.0;
  util::Rng run_rng(7);
  core::UserControlledEngine engine(jobs, machines, cfg);
  engine.reset(start);

  auto per_generation = [&](const char* when) {
    double g3 = 0.0, g2 = 0.0, g1 = 0.0;
    for (graph::Node v = 0; v < machines; ++v) {
      const double load = engine.state().load(v);
      if (v < gen3) g3 += load;
      else if (v < gen3 + gen2) g2 += load;
      else g1 += load;
    }
    std::printf("%-8s per-machine avg: gen3 %.1f, gen2 %.1f, gen1 %.1f\n",
                when, g3 / gen3, g2 / gen2, g1 / (machines - gen3 - gen2));
  };

  per_generation("before");
  const core::RunResult run =
      engine::drive(engine, run_rng, {.max_rounds = 100000});
  per_generation("after");
  std::printf("rebalanced in %ld rounds; every machine under its own cap: %s\n",
              run.rounds, run.balanced ? "yes" : "no");

  // Final load distribution, normalised by each machine's cap.
  util::Histogram utilisation(0.0, 1.05, 21);
  for (graph::Node v = 0; v < machines; ++v) {
    utilisation.add(engine.state().load(v) / caps[v]);
  }
  std::printf("\nload / cap distribution after balancing:\n%s",
              utilisation.to_ascii(40).c_str());

  std::printf(
      "\nTakeaway: with speed-proportional thresholds the unmodified "
      "user-controlled protocol splits load across hardware generations in "
      "proportion to capacity — the non-uniform threshold model the paper's "
      "conclusion proposes needs no protocol changes.\n");
  return 0;
}
