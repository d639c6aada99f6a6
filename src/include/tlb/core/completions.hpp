#pragma once
// Per-task completions of the churn engine, one draw per completion.
//
// Every task completes independently with probability mu each round. Lay
// the tasks out in one flat order — slots in `counts` order, then tasks
// within a slot — and the completions are a Bernoulli(mu) process along
// it, whose gaps between successes are i.i.d. Geometric(mu). So instead of
// one Binomial(k, mu) draw per slot, complete_tasks draws the gap to the
// next completing task, G = floor(log U / log(1 - mu)) with U in (0, 1],
// and walks `counts` once, subtracting each slot's count from the gap;
// the slot where the gap lands gets its completion counted and the next
// gap drawn. Each slot's completions are then exactly Binomial(k, mu),
// independent across slots — the same joint law as the per-slot sweep —
// at completions + 1 draws per pass instead of one per non-empty slot.
// The gap left over past the last slot is discarded.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "tlb/util/rng.hpp"

namespace tlb::core {

namespace detail {

/// Gaps are clamped here: far beyond any population, and small enough that
/// adding a slot position to one cannot overflow.
inline constexpr std::uint64_t kMaxCompletionGap = std::uint64_t{1} << 62;

/// Tasks before the next completing one: floor(log u * inv_log_q) for
/// u in (0, 1] and inv_log_q = 1 / log(1 - mu), at most kMaxCompletionGap.
inline std::uint64_t completion_gap(double u, double inv_log_q) {
  const double g = std::log(u) * inv_log_q;
  // Written so NaN takes the cap: at mu = 5e-324, inv_log_q is -inf and
  // u = 1 gives 0 * -inf. Casting NaN (or anything >= 2^64) to an integer
  // is undefined behaviour.
  return g < static_cast<double>(kMaxCompletionGap)
             ? static_cast<std::uint64_t>(g)
             : kMaxCompletionGap;
}

}  // namespace detail

/// Complete each task counted in `counts` independently with probability
/// `mu` (see the file comment): subtracts every slot's completions from
/// its count, calls on_slot(slot, done) for each slot with done > 0, in
/// slot order, and returns the total. mu >= 1 completes every task and
/// mu <= 0 (or NaN) none, both without drawing; otherwise the pass draws
/// exactly total + 1 times.
template <class OnSlot>
std::uint64_t complete_tasks(util::Rng& rng, double mu,
                             std::span<std::uint32_t> counts,
                             OnSlot&& on_slot) {
  if (!(mu > 0.0)) return 0;
  std::uint64_t total = 0;
  if (mu >= 1.0) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const std::uint32_t k = counts[i];
      if (k == 0) continue;
      counts[i] = 0;
      on_slot(i, k);
      total += k;
    }
    return total;
  }
  const double inv_log_q = 1.0 / std::log1p(-mu);
  const auto draw_gap = [&rng, inv_log_q] {
    return detail::completion_gap(1.0 - rng.uniform01(), inv_log_q);
  };
  // Position of the next completing task, counted from the current slot's
  // first task.
  std::uint64_t next = draw_gap();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint32_t k = counts[i];
    if (next >= k) {
      next -= k;
      continue;
    }
    std::uint32_t done = 0;
    do {
      ++done;
      next += draw_gap() + 1;
    } while (next < k);
    next -= k;
    counts[i] = k - done;
    on_slot(i, done);
    total += done;
  }
  return total;
}

}  // namespace tlb::core
