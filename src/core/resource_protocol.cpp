#include "tlb/core/resource_protocol.hpp"

#include <algorithm>

#include "tlb/core/potential.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/engine/driver.hpp"

namespace tlb::core {

ResourceControlledEngine::ResourceControlledEngine(const graph::Graph& g,
                                                   const tasks::TaskSet& ts,
                                                   ResourceProtocolConfig config)
    : graph_(&g),
      tasks_(&ts),
      config_(std::move(config)),
      walk_(g, config_.walk),
      state_(ts, g.num_nodes()) {
  thresholds_ = resolve_thresholds(config_.threshold, config_.thresholds,
                                   g.num_nodes(), "ResourceControlledEngine");
  max_threshold_ = *std::max_element(thresholds_.begin(), thresholds_.end());
  state_.set_thresholds(thresholds_);
}

void ResourceControlledEngine::reset(const tasks::Placement& placement) {
  state_.place(placement, thresholds_);
}

std::size_t ResourceControlledEngine::step(util::Rng& rng) {
  // Phase 1: evict every unaccepted suffix. By the stack invariant the
  // overloaded resources are exactly those holding unaccepted tasks, which
  // is Algorithm 5.1's guard (per-resource threshold in the non-uniform
  // extension). The state's incremental set makes this O(#overloaded);
  // mutations below only mark dirty, so iterating the list is safe.
  movers_.clear();
  mover_origin_.clear();
  for (Node r : state_.overloaded()) {
    const std::size_t before = movers_.size();
    state_.evict_unaccepted(r, movers_);
    mover_origin_.insert(mover_origin_.end(), movers_.size() - before, r);
  }

  // Phase 2+3: one P-step per evicted task (drawn first, in eviction
  // order, each replacing its origin), then one bulk append with the
  // acceptance test. Arrival order = eviction order, which the model
  // leaves arbitrary.
  for (Node& slot : mover_origin_) slot = walk_.step(slot, rng);
  state_.scatter_accepting(mover_origin_, movers_);
  return movers_.size();
}

double ResourceControlledEngine::potential() const {
  return resource_potential(state_);
}

std::uint32_t ResourceControlledEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double ResourceControlledEngine::max_load() const { return state_.max_load(); }

void ResourceControlledEngine::audit() const { state_.check_invariants(); }

RunResult ResourceControlledEngine::run(util::Rng& rng) {
  return engine::drive(*this, rng,
                       engine::DriveOptions::from(config_.options));
}

RunResult ResourceControlledEngine::run(const tasks::Placement& placement,
                                        util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

}  // namespace tlb::core
