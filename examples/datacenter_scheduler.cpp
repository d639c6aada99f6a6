// Example: QoS-driven VM scheduling in a datacenter (the paper's motivating
// setting: Ackermann et al.'s "Distributed algorithms for QoS load
// balancing" is the direct ancestor of the user-controlled protocol).
//
// Scenario: 200 hypervisors; a burst of VM launch requests of mixed sizes
// (CPU-share weights) lands on a handful of ingest hosts. Each VM is a
// selfish user: if its host is over the QoS threshold, it re-launches on a
// random other host with the paper's probability — no scheduler in the
// loop. We trace the worst host load and the potential over time, then
// compare the above-average and tight QoS thresholds.
#include <cstdio>

#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb;

/// VM sizes in CPU shares: lots of small instances, some medium, few large —
/// a discrete mixture straight from the workload subsystem's grammar.
const char* kVmSizeModel = "mix(1:0.70,4:0.25,16:0.05)";

void print_row(long round, double worst, unsigned overloaded,
               double potential, const char* note) {
  std::printf("%6ld  %12.1f  %12u  %10.1f%s\n", round, worst, overloaded,
              potential, note);
}

/// Prints a trace row at the start of every 20th round.
class EveryTwentiethRound final : public engine::RoundObserver {
 public:
  void on_round(const engine::BalancerView& view, long round) override {
    if (round % 20 == 0) {
      print_row(round, view.max_load(), view.overloaded_count(),
                view.potential(), "");
    }
  }
};

void run_scenario(const char* label, const tasks::TaskSet& vms,
                  graph::Node hosts, double threshold, double alpha,
                  const tasks::Placement& start) {
  core::UserProtocolConfig cfg;
  cfg.threshold = threshold;
  cfg.alpha = alpha;
  util::Rng rng(7);
  core::UserControlledEngine engine(vms, hosts, cfg);

  std::printf("\n--- %s (QoS threshold %.1f CPU shares) ---\n", label,
              threshold);
  std::printf("%6s  %12s  %12s  %10s\n", "round", "worst host", "overloaded",
              "potential");
  EveryTwentiethRound trace;
  const core::RunResult run = engine::reset_and_run(
      engine, start, rng, {.max_rounds = 100000}, &trace);
  print_row(run.rounds, engine.max_load(), engine.overloaded_count(),
            engine.potential(), "  <- balanced");
}

}  // namespace

int main() {
  using namespace tlb;

  const graph::Node hosts = 200;
  util::Rng rng(2024);
  const tasks::TaskSet vms =
      workload::parse_weight_model(kVmSizeModel)->make(2000, rng);
  std::printf("datacenter: %u hypervisors, %zu VMs, total %.0f CPU shares, "
              "largest VM %.0f, average load %.1f\n",
              hosts, vms.size(), vms.total_weight(), vms.max_weight(),
              vms.total_weight() / hosts);

  // The burst lands on 4 ingest hosts.
  const tasks::Placement start = tasks::round_robin(vms, hosts, 4);

  // Above-average QoS: ~20% headroom over the perfect split.
  const double qos_generous = core::threshold_value(
      core::ThresholdKind::kAboveAverage, vms, hosts, 0.2);
  run_scenario("generous QoS (ε = 0.2)", vms, hosts, qos_generous, 1.0, start);

  // Tight QoS: W/n + w_max — the hardest guarantee the protocol supports.
  const double qos_tight =
      core::threshold_value(core::ThresholdKind::kTightUser, vms, hosts);
  run_scenario("tight QoS", vms, hosts, qos_tight, 1.0, start);

  std::printf(
      "\nTakeaway: with 20%% headroom the burst drains in a handful of "
      "rounds; the tight threshold still converges (Theorem 12) but needs "
      "more rounds — the price of guaranteeing max load within one VM of "
      "the perfect split.\n");
  return 0;
}
