#pragma once
// Fast exact Binomial(n, p) sampling.
//
// The grouped user-controlled engine draws, for every (resource, weight
// class) pair, the number of leaving tasks as Binomial(count, p). Counts can
// be as large as m (all tasks piled on one resource, the paper's initial
// condition), so a naive count-coin-flips loop would dominate the runtime.
//
// Strategy:
//   * n*p small or n small  -> BINV (inversion by sequential search), O(1+np)
//   * otherwise             -> BTRS (transformed rejection, Hormann 1993),
//                              O(1) expected.
// Both are exact samplers (no normal approximation), so the grouped engine is
// distributionally identical to per-task coin flips.
//
// FixedBinomial is that sampler for one fixed p. It does the per-p work —
// the p > 1/2 flip, q = 1 - p, log q and p/q — once. util::binomial(rng, n,
// p) is FixedBinomial(p) applied to n, so the two are draw-for-draw
// identical by construction: same result, same generator state.

#include <cmath>
#include <cstdint>

#include "tlb/util/rng.hpp"

namespace tlb::util {

/// Draw from Binomial(n, p). Exact for all n >= 0 and p in [0, 1]; p <= 0
/// and NaN give 0 and p >= 1 gives n, all without drawing.
std::uint64_t binomial(Rng& rng, std::uint64_t n, double p);

namespace detail {
/// Inversion sampler; efficient when n*p <= ~15. Exposed for tests. Exact
/// for all p in [0, 1]: degenerate endpoints short-circuit (p >= 1 -> n,
/// p <= 0 or NaN -> 0), p > 0.5 routes through the symmetric tail, and a
/// q^n underflow (n*p >~ 745) falls back to BTRS instead of returning n.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p);
/// Transformed-rejection sampler; requires n*p >= 10. Exposed for tests.
std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p);
}  // namespace detail

/// Exact Binomial(·, p) sampler for one fixed p; see the header comment.
/// Build it once where p is fixed (one resource's leave probability) and
/// call it per count.
class FixedBinomial {
 public:
  explicit FixedBinomial(double p);

  /// Draw from Binomial(n, p); identical to util::binomial(rng, n, p).
  std::uint64_t operator()(Rng& rng, std::uint64_t n) const {
    if (n == 0 || kind_ != Kind::kSample) return kind_ == Kind::kAll ? n : 0;
    const std::uint64_t k = static_cast<double>(n) * p_ < 10.0
                                ? search(rng, n, q_pow(n))
                                : detail::binomial_btrs(rng, n, p_);
    return flip_ ? n - k : k;
  }

  /// The inversion sampler at any n*p: detail::binomial_inversion.
  std::uint64_t inversion(Rng& rng, std::uint64_t n) const;

 private:
  enum class Kind { kNone, kAll, kSample };

  /// q^n, the inversion walk's P(X = 0), in log space to survive large n.
  double q_pow(std::uint64_t n) const {
    return std::exp(static_cast<double>(n) * log_q_);
  }
  /// Inversion by sequential search from f = P(X = 0). The first step
  /// stays inline; walk() takes the rest.
  std::uint64_t search(Rng& rng, std::uint64_t n, double f) const {
    // q^n underflowed (n*log q < ~-745, i.e. n*p >~ 745): the CDF walk
    // would consume all mass and report n. That regime is squarely BTRS
    // territory.
    if (f <= 0.0) return detail::binomial_btrs(rng, n, p_);
    const double u = rng.uniform01();
    return u > f ? walk(u, f, n) : 0;
  }
  /// The CDF walk past k = 0, entered with u > f = P(X = 0).
  std::uint64_t walk(double u, double f, std::uint64_t n) const;

  Kind kind_ = Kind::kSample;
  bool flip_ = false;   // p > 1/2: sample n - X with X ~ Binomial(n, 1 - p)
  double p_ = 0.0;      // the smaller tail, min(p, 1 - p)
  double log_q_ = 0.0;  // log(1 - p_)
  double r_ = 0.0;      // p_ / (1 - p_)
};

}  // namespace tlb::util
