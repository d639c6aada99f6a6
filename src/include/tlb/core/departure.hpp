#pragma once
// Algorithm 6.1's departure rule, shared by every user-controlled engine:
// the exact engine (on K_n, and on a graph for the graph-user and mixed
// protocols), the grouped engine and the churn engine (through
// GroupedState).

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace tlb::core {

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

}  // namespace tlb::core
