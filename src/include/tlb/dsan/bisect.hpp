#pragma once
// dsan divergence bisection — pinpointing where two runs stopped agreeing.
//
// The bisector (tlb_sim --dsan-bisect) runs the same scenario under two
// configurations (side A: the reference, --engine-threads 1; side B: the
// configuration under test, optionally with a planted fault), records both
// fingerprint row streams, and narrows the divergence in three stages:
//
//   1. first_divergence(rowsA, rowsB)      -> first divergent round R
//   2. rerun both sides with detail_step=R -> first divergent *phase*
//      (sample / merge / apply sub-digests from the StepProbe)
//   3. capture both load vectors at R      -> first divergent *resource*
//
// The primitives here are pure comparisons over recorded data — the
// orchestration (configuring the two runs) lives in the app, which owns the
// scenario plumbing anyway.

#include <cstddef>
#include <string>
#include <vector>

#include "tlb/dsan/observer.hpp"

namespace tlb::dsan {

/// First row index where the two streams disagree (state fingerprint, work
/// digest, round number, or one stream ending early). `found` false means
/// identical.
struct Divergence {
  bool found = false;
  std::size_t index = 0;     ///< row index into the shorter-or-equal stream
  long round = -1;           ///< round number of the divergent row
  bool final_state = false;  ///< the divergent row is the final snapshot
};

[[nodiscard]] Divergence first_divergence(const std::vector<Row>& a,
                                          const std::vector<Row>& b);

/// First phase sub-digest the two detail rows disagree on; empty when the
/// phase lists agree (the divergence is then outside the digested phases —
/// e.g. in the draw accounting alone). A missing/extra phase counts as a
/// divergence at that phase's name.
[[nodiscard]] std::string first_divergent_phase(const Row& a, const Row& b);

/// Index of the first per-resource load the two sides disagree on (exact
/// double bit equality, matching the fingerprint), or -1 when the vectors
/// are identical; a length mismatch diverges at the shorter length.
[[nodiscard]] long first_divergent_resource(const std::vector<double>& a,
                                            const std::vector<double>& b);

/// The bisector's finished verdict, rendered for humans and grep (CI keys
/// off the "first divergent round:" line).
struct BisectReport {
  bool diverged = false;
  long round = -1;
  bool final_state = false;
  std::string phase;    ///< empty = not narrowed / outside digested phases
  long resource = -1;   ///< -1 = load vectors agree (or unavailable)
  [[nodiscard]] std::string render() const;
};

}  // namespace tlb::dsan
