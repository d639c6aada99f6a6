#include "tlb/core/graph_user_protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "tlb/core/departure.hpp"
#include "tlb/core/potential.hpp"

namespace tlb::core {

GraphUserEngine::GraphUserEngine(const graph::Graph& g,
                                 const tasks::TaskSet& ts,
                                 GraphUserConfig config)
    : config_(std::move(config)),
      walk_(g, config_.walk),
      state_(ts, g.num_nodes()) {
  config_.threshold.checked(g.num_nodes(), "GraphUserEngine");
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "GraphUserEngine: alpha must be finite and > 0");
  }
  state_.set_thresholds(std::move(config_.threshold));
}

void GraphUserEngine::reset(const tasks::Placement& placement) {
  state_.place(placement);
}

std::size_t GraphUserEngine::step(util::Rng& rng) {
  // Phase 1: departure decisions against the round-start state, exactly the
  // Algorithm 6.1 rule per resource. The state's incremental overloaded set
  // makes this O(#overloaded + #movers) instead of an O(n) sweep.
  movers_.clear();
  mover_origin_.clear();
  for (Node r : state_.overloaded()) {
    flip_departures(state_, r, config_.alpha, rng, leave_mask_, movers_,
                    mover_origin_);
  }

  // Phase 2: each leaver takes one P-step from its origin (drawn first, in
  // mover order, each replacing its origin), then one bulk append. A
  // self-loop of P means the task stays (it "migrates to itself"), which
  // keeps the uniform stationary distribution the analysis relies on.
  for (Node& slot : mover_origin_) slot = walk_.step(slot, rng);
  state_.scatter(mover_origin_, movers_);
  return movers_.size();
}

bool GraphUserEngine::balanced() const { return state_.balanced(); }

double GraphUserEngine::potential() const {
  return user_potential(state_, state_.thresholds());
}

std::uint32_t GraphUserEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double GraphUserEngine::max_load() const { return state_.max_load(); }

void GraphUserEngine::audit() const { state_.check_invariants(); }

}  // namespace tlb::core
