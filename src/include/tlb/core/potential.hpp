#pragma once
// The paper's two potential functions.
//
// Resource-controlled (eq. 1):  Φ(X) = Σ_{i ∈ I^a ∪ I^c} w_i — the weight of
// all tasks above or cutting the threshold; with the stack semantics this is
// exactly the total unaccepted (active) weight. Observation 4: Φ never
// increases under Algorithm 5.1. Lemma 5: it halves in expectation (factor
// 1/4 guaranteed) every 2·H(G) steps under the tight threshold.
//
// User-controlled (Section 6):  Φ(t) = Σ_r φ_r(t), where φ_r is the weight
// of the cutting task plus everything above it on overloaded resources, 0
// otherwise. Lemma 10: one-step multiplicative drop of (α·ε w_min)/(2(1+ε) w_max).
//
// The functions below are O(n) sweeps over a SystemState; the ones that
// compare against a threshold read the state's own thresholds().

#include "tlb/core/system_state.hpp"

namespace tlb::core {

/// Resource-protocol potential Φ of eq. (1): total unaccepted weight. Only
/// meaningful when the state was placed/evolved with acceptance bookkeeping.
/// An O(n) sweep: the reference that ResourceControlledEngine::potential(),
/// which sums only the overloaded list, is tested against bitwise.
double resource_potential(const SystemState& state);

/// User-protocol potential Φ(t) = Σ_r φ_r(t), φ_r taken against
/// state.thresholds()[r].
double user_potential(const SystemState& state);

/// Lemma 1's quantity: the fraction of resources whose load is at most
/// T_r - w_max (i.e. able to accept an additional task of any weight). The
/// lemma guarantees >= eps/(1+eps) for T = (1+eps)·W/n + w_max, at every
/// point in time.
double acceptor_fraction(const SystemState& state, double w_max);

}  // namespace tlb::core
