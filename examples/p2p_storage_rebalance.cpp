// Example: rebalancing replicated objects in a P2P storage overlay with the
// resource-controlled protocol (Algorithm 5.1).
//
// Scenario: 256 storage nodes joined in an overlay graph; a bulk import
// wrote all objects (mixed sizes) through two gateway nodes. Each node
// knows only its own disk usage and the global per-node quota; overloaded
// nodes push their above-quota objects to random overlay neighbours. The
// overlay topology determines how fast the system heals: we run the same
// import on an expander, a torus (rack-local wiring), and a ring, and
// report rounds, migrations and network hops — the mixing time of the
// overlay is exactly what Theorem 3 says it should be.
#include <cstdio>
#include <vector>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/randomwalk/mixing.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb;

/// Object sizes: bounded Pareto (lots of small objects, a heavy tail of
/// large blobs), the classic storage-workload shape.
const char* kObjectSizeModel = "pareto(2.2,64)";

void run_overlay(const char* label, const graph::Graph& overlay,
                 randomwalk::WalkKind walk, const tasks::TaskSet& objects,
                 const tasks::Placement& start) {
  const double quota = core::threshold_value(
      core::ThresholdKind::kAboveAverage, objects, overlay.num_nodes(), 0.25);

  const randomwalk::TransitionModel model(overlay, walk);
  const long tmix = randomwalk::empirical_mixing_time_from(model, 0);

  core::ResourceProtocolConfig cfg;
  cfg.threshold = quota;
  cfg.walk = walk;
  util::Rng rng(99);
  core::ResourceControlledEngine engine(overlay, objects, cfg);
  const core::RunResult r =
      engine::reset_and_run(engine, start, rng, {.max_rounds = 2000000});

  std::printf("%-22s  t_mix=%5ld  rounds=%6ld  object moves=%8llu  "
              "final max=%7.1f  (quota %.1f)\n",
              label, tmix, r.rounds,
              static_cast<unsigned long long>(r.migrations), r.final_max_load,
              quota);
}

}  // namespace

int main() {
  using namespace tlb;

  const graph::Node nodes = 256;
  util::Rng rng(31);
  const tasks::TaskSet objects =
      workload::parse_weight_model(kObjectSizeModel)->make(4096, rng);
  std::printf("p2p store: %u nodes, %zu objects, %.0f GB total, largest "
              "object %.1f GB\n\n",
              nodes, objects.size(), objects.total_weight(),
              objects.max_weight());

  // Bulk import through two gateways: odd ids to gateway 0, even to 1.
  tasks::Placement start(objects.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    start[i] = static_cast<graph::Node>(i % 2);
  }

  const graph::Graph expander = graph::random_regular(nodes, 8, rng);
  const graph::Graph torus = graph::grid2d(16, 16, /*torus=*/true);
  const graph::Graph ring = graph::cycle(nodes);

  run_overlay("expander (8-regular)", expander,
              randomwalk::WalkKind::kMaxDegree, objects, start);
  run_overlay("torus 16x16", torus, randomwalk::WalkKind::kLazy, objects,
              start);
  run_overlay("ring", ring, randomwalk::WalkKind::kLazy, objects, start);

  std::printf(
      "\nTakeaway: healing time tracks the overlay's mixing time "
      "(Theorem 3: O(τ(G)·log m)) — an expander overlay heals orders of "
      "magnitude faster than a ring at identical degree budgets, which is "
      "why DHT designs favour expander-like neighbour sets.\n");
  return 0;
}
