#pragma once
// Algorithm 6.1's departure rule, shared by every user-controlled engine:
// the exact and grouped engines, the churn engine (through GroupedState),
// the graph-user engine and the mixed engine's user branch.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tlb/graph/graph.hpp"
#include "tlb/tasks/task_set.hpp"

namespace tlb::util {
class Rng;
}  // namespace tlb::util

namespace tlb::core {

class SystemState;

/// The probability p_r = min(1, α·⌈φ_r/w_max⌉/b_r) with which each task on
/// resource r leaves; 0 when r holds no task or φ_r <= 0. With α > 0, p_r
/// is positive exactly when φ_r is, so callers skip the resources with
/// p_r <= 0 and draw no coin there.
inline double leave_probability(double alpha, double phi, double w_max,
                                std::size_t b) {
  if (b == 0 || phi <= 0.0) return 0.0;
  const double p = alpha * std::ceil(phi / w_max) / static_cast<double>(b);
  return std::min(p, 1.0);
}

/// The graph engines' departures from one overloaded resource r: with
/// p = leave_probability(alpha, φ_r, w_max, b_r), φ_r taken against
/// state.thresholds()[r], every task on r flips one Bernoulli(p) coin on
/// `rng`, bottom to top. The leavers are removed from r and appended to
/// `movers`, and r is appended to `origin` once per leaver. Draws nothing
/// when p is 0. `mask` is the caller's scratch.
void flip_departures(SystemState& state, graph::Node r, double alpha,
                     util::Rng& rng, std::vector<std::uint8_t>& mask,
                     std::vector<tasks::TaskId>& movers,
                     std::vector<graph::Node>& origin);

}  // namespace tlb::core
