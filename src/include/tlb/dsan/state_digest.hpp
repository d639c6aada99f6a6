#pragma once
// Digest helpers over the deterministic state surface.
//
// digest_state() is the generic fingerprint every SystemState-backed engine
// gets for free through engine::BalancerView: per-resource loads (bit
// patterns), the arena's span contents (task ids + mirrored weights, so a
// same-load different-stacking divergence is still caught), the tracked
// thresholds, and the OverloadedSet's bookkeeping. The tracker is digested
// through its const non-reconciling surface only (items as of the last
// flush, dirty queue size, lifetime counters) — fingerprinting must never
// trigger a flush, or attaching the sanitizer would shift the very
// per-round cost counters it is meant to pin down.
//
// Every digest is split in two. The *state* digest covers what the run
// computed: loads, stacks, counts, thresholds and the overloaded list. The
// *work* digest covers what computing it cost: the tracker's re-check and
// dirty-mark counters and its pending queue. A change that only makes the
// tracker cheaper or dearer moves the work digest and leaves the state
// digest alone, so a golden check can tell the two apart.

#include <cstdint>
#include <vector>

#include "tlb/core/system_state.hpp"
#include "tlb/dsan/fingerprint.hpp"

namespace tlb::dsan {

/// Fold a SystemState's deterministic surface into `state`, and its
/// tracker's cost counters into `work`.
void digest_state(const core::SystemState& state, Digest& d, Digest& work);

/// Fold an OverloadedSet's bookkeeping: the items as of the last flush
/// into `state`; the pending dirty-queue size and the lifetime flush/dirty
/// counters into `work`. Never reconciles.
void digest_tracker(const core::OverloadedSet& tracker, Digest& state,
                    Digest& work);

/// Fold a plain load vector (grouped/dynamic engines, baselines).
void digest_loads(const std::vector<double>& loads, Digest& d);
void digest_loads(const double* loads, std::size_t n, Digest& d);

}  // namespace tlb::dsan
