// Quickstart: the smallest complete use of the library.
//
// Scenario: 100 resources on a complete graph, 1000 weighted tasks all
// starting on resource 0. We set the paper's above-average threshold and run
// both protocols to balance, then print what happened.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"

int main() {
  using namespace tlb;

  // 1. Resources: n nodes connected as a complete graph (every resource can
  //    send tasks to every other).
  const graph::Node n = 100;
  const graph::Graph g = graph::complete(n);

  // 2. Tasks: 990 unit-weight tasks plus 10 heavy ones of weight 25
  //    (w_min = 1, as the paper normalises).
  const tasks::TaskSet ts = tasks::two_point(/*unit_count=*/990,
                                             /*heavy_count=*/10,
                                             /*w_max=*/25.0);
  std::printf("tasks: m=%zu, W=%.0f, w_max=%.0f, average load W/n=%.2f\n",
              ts.size(), ts.total_weight(), ts.max_weight(),
              ts.total_weight() / n);

  // 3. Threshold: the paper's above-average threshold (1+ε)·W/n + w_max.
  const double eps = 0.2;
  const double T =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, eps);
  std::printf("threshold: T = (1+%.1f)·W/n + w_max = %.2f\n", eps, T);

  // 4. Adversarial start: everything on resource 0.
  const tasks::Placement start = tasks::all_on_one(ts, 0);

  // 5a. Resource-controlled protocol (Algorithm 5.1): overloaded resources
  //     push their above-threshold stack suffix to random neighbours.
  {
    core::ResourceProtocolConfig cfg;
    cfg.threshold = T;
    util::Rng rng(/*seed=*/42);
    core::ResourceControlledEngine engine(g, ts, cfg);
    const core::RunResult r = engine::reset_and_run(engine, start, rng);
    std::printf("\n[resource-controlled] balanced=%s rounds=%ld "
                "migrations=%llu max load=%.2f (T=%.2f)\n",
                r.balanced ? "yes" : "no", r.rounds,
                static_cast<unsigned long long>(r.migrations),
                r.final_max_load, T);
  }

  // 5b. User-controlled protocol (Algorithm 6.1): every task on an
  //     overloaded resource migrates on its own with probability
  //     α·⌈φ/w_max⌉/b to a uniformly random resource.
  {
    core::UserProtocolConfig cfg;
    cfg.threshold = T;
    cfg.alpha = 1.0;  // the paper's simulation choice
    util::Rng rng(/*seed=*/42);
    core::UserControlledEngine engine(ts, n, cfg);
    const core::RunResult r = engine::reset_and_run(engine, start, rng);
    std::printf("[user-controlled]     balanced=%s rounds=%ld "
                "migrations=%llu max load=%.2f (T=%.2f)\n",
                r.balanced ? "yes" : "no", r.rounds,
                static_cast<unsigned long long>(r.migrations),
                r.final_max_load, T);
  }

  std::printf("\nBoth protocols drove every resource to at most the "
              "threshold, without any global coordination.\n");
  return 0;
}
