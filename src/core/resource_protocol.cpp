#include "tlb/core/resource_protocol.hpp"

#include <utility>


namespace tlb::core {

ResourceControlledEngine::ResourceControlledEngine(const graph::Graph& g,
                                                   const tasks::TaskSet& ts,
                                                   ResourceProtocolConfig config)
    : config_(std::move(config)),
      walk_(g, config_.walk),
      state_(ts, g.num_nodes(), std::move(config_.threshold),
             "ResourceControlledEngine"),
      phases_(config_.options.registry, config_.options.trace,
              /*probe=*/nullptr) {
  walk_phase_ = phases_.phase("resource.walk");
  scatter_phase_ = phases_.phase("resource.scatter");
  m_evictions_ = phases_.work_counter("resource.evictions");
  tracker_counters_.attach(phases_, "resource", state_.overloaded_tracker());
}

void ResourceControlledEngine::reset(const tasks::Placement& placement) {
  state_.place_accepting(placement);
}

std::size_t ResourceControlledEngine::step(util::Rng& rng) {
  // By the stack invariant the overloaded resources are exactly those
  // holding unaccepted tasks, which is Algorithm 5.1's guard (per-resource
  // threshold in the non-uniform extension). The state's incremental set
  // makes this O(#overloaded); nothing below reconciles it before the
  // scatter, so the list stays valid across both passes.
  const std::vector<Node>& over = state_.overloaded();
  const mem::TaskArena& arena = state_.arena();
  std::size_t evictees = 0;
  for (const Node r : over) {
    evictees += arena.count(r) - arena.accepted_count(r);
  }

  // Pass 1: one P-step per evictee, in eviction order (list order, bottom
  // to top within a stack), each origin's row taken once. The draws run on
  // a local copy of the generator, written back after the pass, so the
  // state stays in registers across the stores.
  {
    const obs::PhaseSpan span = phases_.time(walk_phase_);
    dst_.resize(evictees);
    util::Rng local = rng;
    Node* to = dst_.data();
    for (const Node r : over) {
      const randomwalk::TransitionModel::Row row = walk_.row(r);
      const std::size_t pending = arena.count(r) - arena.accepted_count(r);
      for (std::size_t i = 0; i < pending; ++i) *to++ = row.step(local);
    }
    rng = local;
  }

  // Pass 2: evict every unaccepted suffix and land evictee j on dst_[j]
  // with the acceptance test, as sequential pushes in eviction order would.
  // Arrival order = eviction order, which the model leaves arbitrary.
  {
    const obs::PhaseSpan span = phases_.time(scatter_phase_);
    state_.evict_scatter(dst_);
  }
  m_evictions_.add(evictees);
  tracker_counters_.export_deltas(state_.overloaded_tracker());
  return evictees;
}

double ResourceControlledEngine::potential() const {
  double phi = 0.0;
  for (const Node r : state_.overloaded()) {
    phi += state_.stack(r).pending_load();
  }
  return phi;
}

std::uint32_t ResourceControlledEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double ResourceControlledEngine::max_load() const { return state_.max_load(); }

void ResourceControlledEngine::audit() const { state_.check_invariants(); }

}  // namespace tlb::core
