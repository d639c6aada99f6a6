#include "tlb/core/potential.hpp"

namespace tlb::core {

double resource_potential(const SystemState& state) {
  double phi = 0.0;
  for (Node r = 0; r < state.num_resources(); ++r) {
    phi += state.stack(r).pending_load();
  }
  return phi;
}

double user_potential(const SystemState& state) {
  return state.thresholds().visit([&state](const auto T) {
    double phi = 0.0;
    for (Node r = 0; r < state.num_resources(); ++r) {
      phi += state.stack(r).phi(T[r]);
    }
    return phi;
  });
}

double acceptor_fraction(const SystemState& state, double w_max) {
  const Thresholds& thresholds = state.thresholds();
  Node able = 0;
  for (Node r = 0; r < state.num_resources(); ++r) {
    if (state.load(r) <= thresholds[r] - w_max) ++able;
  }
  return static_cast<double>(able) / static_cast<double>(state.num_resources());
}

}  // namespace tlb::core
