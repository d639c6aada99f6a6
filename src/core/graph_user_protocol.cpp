#include "tlb/core/graph_user_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tlb/core/potential.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/engine/driver.hpp"

namespace tlb::core {

GraphUserEngine::GraphUserEngine(const graph::Graph& g,
                                 const tasks::TaskSet& ts,
                                 GraphUserConfig config)
    : graph_(&g),
      tasks_(&ts),
      config_(std::move(config)),
      walk_(g, config_.walk),
      state_(ts, g.num_nodes()) {
  thresholds_ = resolve_thresholds(config_.threshold, config_.thresholds,
                                   g.num_nodes(), "GraphUserEngine");
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "GraphUserEngine: alpha must be finite and > 0");
  }
  state_.set_thresholds(thresholds_);
}

void GraphUserEngine::reset(const tasks::Placement& placement) {
  state_.place(placement, /*threshold=*/-1.0);
}

std::size_t GraphUserEngine::step(util::Rng& rng) {
  const double w_max = tasks_->max_weight();

  // Phase 1: departure decisions against the round-start state, exactly the
  // Algorithm 6.1 rule per resource. The state's incremental overloaded set
  // makes this O(#overloaded + #movers) instead of an O(n) sweep.
  movers_.clear();
  mover_origin_.clear();
  for (Node r : state_.overloaded()) {
    const ResourceStack& stack = std::as_const(state_).stack(r);
    const double phi = stack.phi(*tasks_, thresholds_[r]);
    if (phi <= 0.0) continue;
    const double p = std::min(
        1.0, config_.alpha * std::ceil(phi / w_max) /
                 static_cast<double>(stack.count()));
    leave_mask_.assign(stack.count(), 0);
    bool any = false;
    for (std::size_t i = 0; i < leave_mask_.size(); ++i) {
      if (rng.bernoulli(p)) {
        leave_mask_[i] = 1;
        any = true;
      }
    }
    if (!any) continue;
    const std::size_t before = movers_.size();
    state_.remove_marked(r, leave_mask_, movers_);
    mover_origin_.insert(mover_origin_.end(), movers_.size() - before, r);
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
  return user_potential(state_, thresholds_);
}

std::uint32_t GraphUserEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double GraphUserEngine::max_load() const { return state_.max_load(); }

double GraphUserEngine::reported_threshold() const {
  return *std::max_element(thresholds_.begin(), thresholds_.end());
}

void GraphUserEngine::audit() const { state_.check_invariants(); }

RunResult GraphUserEngine::run(util::Rng& rng) {
  return engine::drive(*this, rng,
                       engine::DriveOptions::from(config_.options));
}

RunResult GraphUserEngine::run(const tasks::Placement& placement,
                               util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

}  // namespace tlb::core
