#pragma once
// dsan::StepProbe — RNG draw accounting for one stepping engine.
//
// The canonical stream discipline (PR 4) says: each round, an engine draws
// exactly one round_seed from the caller's stream for phase 1, samples
// departures in shards seeded derive_seed(round_seed, shard), and only the
// phase-2 apply draws from the caller's stream again. A probe attached to
// an engine counts every draw per (round, shard) and checks it against the
// budget the engine declares, so an unexpected draw — the classic way
// parallel refactors break determinism — is flagged at the round it
// happens, not 40 rounds later as a failed byte-diff.
//
// Usage (engine side): core::StepPhases brackets each step (begin_step
// attaches and counts, end_step detaches and folds) and records the phase
// digests; the sharded sampler calls the probe itself when one is set:
//   probe->arm_shards(num_shards);      // before the sharded sampling
//   ... in shard lambda: srng.attach_probe(probe->shard_slot(shard));
//   probe->expect_shard_draws(shard, coins_in_(0,1));  // exact budgets only
//
// Shard slots are pre-sized, index-addressed plain counters: each shard
// writes only its own slot, so the accounting is race-free and the fold
// (done single-threaded in end_step, in shard-index order) is independent
// of which worker ran which shard.
//
// The probe also owns the two fault-injection knobs the divergence
// bisector uses: plant_round (consume one extra caller-stream draw at that
// step — a planted divergence) and detail_round (collect per-phase
// sub-digests at that step only, so record-mode traces stay compact).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tlb/dsan/fingerprint.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::dsan {

/// One phase sub-digest recorded at the detail round.
struct PhaseDigest {
  std::string name;
  std::uint64_t digest = 0;
};

/// Everything the probe learned about one step(), folded into the round
/// fingerprint by the FingerprintObserver.
struct StepRecord {
  long step = -1;                   ///< steps since reset (includes warmup)
  std::uint64_t master_draws = 0;   ///< caller-stream draws during step()
  std::uint64_t shard_draws = 0;    ///< total shard-stream draws
  std::uint64_t shard_digest = 0;   ///< FNV over (shard, draws) pairs
  std::uint64_t rng_state = 0;      ///< caller RNG cursor hash after step()
  std::vector<PhaseDigest> phases;  ///< detail round only

  /// The draw-accounting half of the round fingerprint.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    Digest d;
    d.u64(master_draws);
    d.u64(shard_draws);
    d.u64(shard_digest);
    d.u64(rng_state);
    return d.value();
  }
};

/// One broken draw budget: the engine declared `expected` draws for a shard
/// and the stream consumed `actual`.
struct BudgetViolation {
  long step = -1;
  std::size_t shard = 0;
  std::uint64_t expected = 0;
  std::uint64_t actual = 0;

  [[nodiscard]] std::string render() const;
};

class StepProbe {
 public:
  StepProbe() = default;
  StepProbe(const StepProbe&) = delete;
  StepProbe& operator=(const StepProbe&) = delete;

  // --- configuration (set once, before the run) ---

  /// Consume one extra caller-stream draw at this step (fault injection for
  /// the bisector's prove-it-diverges smoke). -1 = never.
  void set_plant_step(long step) noexcept { plant_step_ = step; }

  /// Collect per-phase sub-digests at this step. -1 = never, -2 = every
  /// step (the bisector's detail rerun uses a single step).
  void set_detail_step(long step) noexcept { detail_step_ = step; }
  static constexpr long kDetailAll = -2;

  // --- engine-facing hooks ---

  /// Top of step(): advance the step counter, attach the master-stream draw
  /// counter, and maybe plant the divergence.
  void begin_step(util::Rng& rng) noexcept {
    ++step_;
    record_.step = step_;
    record_.master_draws = 0;
    record_.shard_draws = 0;
    record_.shard_digest = 0;
    record_.phases.clear();
    shard_draws_.clear();
    shard_expect_.clear();
    rng.attach_probe(&record_.master_draws);
    if (step_ == plant_step_) (void)rng();
  }

  /// True iff this step should record per-phase sub-digests.
  [[nodiscard]] bool want_phases() const noexcept {
    return detail_step_ == kDetailAll || step_ == detail_step_;
  }

  /// Record one phase sub-digest (call only when want_phases()).
  void phase(const char* name, std::uint64_t digest) {
    record_.phases.push_back({name, digest});
  }

  /// Size the per-shard draw counters for this step's sharded sampling.
  void arm_shards(std::size_t count) {
    shard_draws_.assign(count, 0);
    shard_expect_.assign(count, kNoBudget);
  }

  /// The draw counter shard `shard`'s private RNG attaches to. Each shard
  /// owns exactly its slot; no synchronization needed.
  [[nodiscard]] std::uint64_t* shard_slot(std::size_t shard) noexcept {
    return &shard_draws_[shard];
  }

  /// Declare the exact number of draws shard `shard` must consume. Only
  /// exactly-knowable budgets are declared (the exact engine's one draw per
  /// coin with 0 < p < 1); variable-draw paths (binomial inversion, Lemire
  /// rejection) record actual counts into the fingerprint instead.
  void expect_shard_draws(std::size_t shard, std::uint64_t expected) noexcept {
    shard_expect_[shard] = expected;
  }

  /// Bottom of step(): detach the master counter, capture the RNG cursor,
  /// fold shard counts (in shard-index order) and check declared budgets.
  void end_step(util::Rng& rng);

  // --- reader-facing (FingerprintObserver / bisector) ---

  /// True once between end_step and the next take(): a fresh record exists.
  [[nodiscard]] bool has_record() const noexcept { return fresh_; }

  /// The last completed step's record; clears the freshness flag.
  [[nodiscard]] const StepRecord& take() noexcept {
    fresh_ = false;
    return record_;
  }

  /// Steps observed since construction/reset (warmup included).
  [[nodiscard]] long steps_seen() const noexcept { return step_ + 1; }

  /// Every broken budget, in step order.
  [[nodiscard]] const std::vector<BudgetViolation>& violations()
      const noexcept {
    return violations_;
  }

  /// Forget everything except the configuration knobs.
  void reset() noexcept {
    step_ = -1;
    fresh_ = false;
    record_ = StepRecord{};
    violations_.clear();
  }

 private:
  static constexpr std::uint64_t kNoBudget = ~0ULL;

  long step_ = -1;
  long plant_step_ = -1;
  long detail_step_ = -1;
  bool fresh_ = false;
  StepRecord record_;
  std::vector<std::uint64_t> shard_draws_;
  std::vector<std::uint64_t> shard_expect_;
  std::vector<BudgetViolation> violations_;
};

}  // namespace tlb::dsan
