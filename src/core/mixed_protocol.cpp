#include "tlb/core/mixed_protocol.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tlb/core/departure.hpp"
#include "tlb/core/potential.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::core {

namespace {

/// Algorithm 6.1's departures from one overloaded resource r: with
/// p = leave_probability(alpha, φ_r, w_max, b_r), φ_r taken against
/// state.thresholds()[r], every task on r flips one Bernoulli(p) coin on
/// `rng`, bottom to top. The leavers are removed from r and appended to
/// `movers`, and r is appended to `origin` once per leaver. Draws nothing
/// when p is 0. `mask` is the caller's scratch.
void flip_departures(SystemState& state, Node r, double alpha,
                     util::Rng& rng, std::vector<std::uint8_t>& mask,
                     std::vector<TaskId>& movers, std::vector<Node>& origin) {
  const ResourceStack stack = state.stack(r);
  const double p =
      leave_probability(alpha, stack.phi(state.thresholds()[r]),
                        state.task_set().max_weight(), stack.count());
  if (p <= 0.0) return;
  mask.assign(stack.count(), 0);
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (rng.bernoulli(p)) {
      mask[i] = 1;
      any = true;
    }
  }
  if (!any) return;
  const std::size_t before = movers.size();
  state.remove_marked(r, mask, movers);
  origin.insert(origin.end(), movers.size() - before, r);
}

}  // namespace

MixedProtocolEngine::MixedProtocolEngine(const graph::Graph& g,
                                         const tasks::TaskSet& ts,
                                         MixedProtocolConfig config)
    : config_(std::move(config)),
      walk_(g, config_.walk),
      state_(ts, g.num_nodes(), std::move(config_.threshold),
             "MixedProtocolEngine") {
  // Negated, so NaN fails too: a NaN blend would never act resource-mode.
  const double beta = config_.resource_probability;
  if (!(beta >= 0.0 && beta <= 1.0)) {
    throw std::invalid_argument(
        "MixedProtocolEngine: resource_probability in [0, 1]");
  }
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "MixedProtocolEngine: alpha must be finite and > 0");
  }
}

void MixedProtocolEngine::reset(const tasks::Placement& placement) {
  state_.place(placement);
  resource_rounds_ = 0;
}

std::size_t MixedProtocolEngine::step(util::Rng& rng) {
  // Phase 1: per overloaded resource, choose the mode for this round, then
  // collect leavers (decisions against the round-start state). The state's
  // incremental overloaded set makes this O(#overloaded + #movers). At
  // β = 0 no blend coin is drawn, so the stream is the graph-user
  // protocol's: departure coins, then walk steps.
  movers_.clear();
  mover_origin_.clear();
  const double beta = config_.resource_probability;
  bool any_resource_mode = false;
  for (Node r : state_.overloaded()) {
    if (beta > 0.0 && rng.bernoulli(beta)) {
      // Resource-controlled round: evict the whole above-threshold suffix.
      any_resource_mode = true;
      const std::size_t before = movers_.size();
      state_.evict_above(r, movers_);
      mover_origin_.insert(mover_origin_.end(), movers_.size() - before, r);
    } else {
      // User-controlled round: Algorithm 6.1's per-task coin.
      flip_departures(state_, r, config_.alpha, rng, leave_mask_, movers_,
                      mover_origin_);
    }
  }
  if (any_resource_mode) ++resource_rounds_;

  // Phase 2: every leaver takes one P-step from its origin (drawn first,
  // in mover order, each replacing its origin), then one bulk append.
  for (Node& slot : mover_origin_) slot = walk_.step(slot, rng);
  state_.scatter(mover_origin_, movers_);
  return movers_.size();
}

bool MixedProtocolEngine::balanced() const { return state_.balanced(); }

double MixedProtocolEngine::potential() const {
  return user_potential(state_);
}

std::uint32_t MixedProtocolEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double MixedProtocolEngine::max_load() const { return state_.max_load(); }

void MixedProtocolEngine::audit() const { state_.check_invariants(); }

}  // namespace tlb::core
