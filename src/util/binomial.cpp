#include "tlb/util/binomial.hpp"

#include <cmath>

namespace tlb::util {

namespace detail {

std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  return FixedBinomial(p).inversion(rng, n);
}

std::uint64_t binomial_btrs(Rng& rng, std::uint64_t n, double p) {
  // BTRS: "transformed rejection with squeeze" (Hormann 1993, BTRD's compact
  // sibling). Exact sampler, O(1) expected time for n*p >= 10.
  const double nd = static_cast<double>(n);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);

  auto log_fact = [](double k) {
    // Stirling series; exact-enough for the acceptance test (k >= 10 on the
    // rejection path; small k handled by the table below).
    static const double table[] = {0.0,
                                   0.0,
                                   0.6931471805599453,
                                   1.791759469228055,
                                   3.1780538303479458,
                                   4.787491742782046,
                                   6.579251212010101,
                                   8.525161361065415,
                                   10.60460290274525,
                                   12.801827480081469};
    if (k < 10.0) return table[static_cast<int>(k)];
    const double k1 = k + 1.0;
    return (k1 - 0.5) * std::log(k1) - k1 + 0.9189385332046727 +
           1.0 / (12.0 * k1) - 1.0 / (360.0 * k1 * k1 * k1);
  };

  const double h = log_fact(m) + log_fact(nd - m);
  const double log_r = std::log(r);
  for (;;) {
    double u = rng.uniform01() - 0.5;
    double v = rng.uniform01();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    const auto k = static_cast<std::uint64_t>(kd);
    if (us >= 0.07 && v <= v_r) return k;  // squeeze: accept immediately
    // Full acceptance test in log space (Hormann 1993, step 3.1):
    // accept iff log(v') <= log f(k) - log f(m) with the transformed v'.
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upperbound =
        h - log_fact(kd) - log_fact(nd - kd) + (kd - m) * log_r;
    if (v <= upperbound) return k;
  }
}

}  // namespace detail

FixedBinomial::FixedBinomial(double p) {
  // Degenerate endpoints first. NaN fails every ordered comparison, so it is
  // caught by !(p > 0) and treated as p = 0 (the Rng::bernoulli contract)
  // instead of reaching BTRS, whose accept test it would make always false.
  // p = 1.0 is reachable in production: the user protocol's leave
  // probability clamps to exactly 1.0 on extreme piles, and without this
  // guard log(1-p) = -inf makes f = 0 and r = p/q = inf, so the CDF walk
  // would return garbage (1) instead of n.
  if (!(p > 0.0)) {
    kind_ = Kind::kNone;
    return;
  }
  if (p >= 1.0) {
    kind_ = Kind::kAll;
    return;
  }
  // Exploit symmetry so the inversion path sees the smaller tail, which
  // also keeps q away from 0 so log(q) and p/q stay finite.
  flip_ = p > 0.5;
  p_ = flip_ ? 1.0 - p : p;
  const double q = 1.0 - p_;
  log_q_ = std::log(q);
  r_ = p_ / q;
}

std::uint64_t FixedBinomial::inversion(Rng& rng, std::uint64_t n) const {
  if (n == 0 || kind_ != Kind::kSample) return kind_ == Kind::kAll ? n : 0;
  const std::uint64_t k = search(rng, n, q_pow(n));
  return flip_ ? n - k : k;
}

std::uint64_t FixedBinomial::walk(double u, double f, std::uint64_t n) const {
  // Recurrence: P(k+1) = P(k) * (n-k)/(k+1) * p/q.
  std::uint64_t k = 0;
  do {
    u -= f;
    f *= r_ * static_cast<double>(n - k) / static_cast<double>(k + 1);
    ++k;
    if (k >= n) return n;  // numerical guard: all mass consumed
  } while (u > f);
  return k;
}

std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  return FixedBinomial(p)(rng, n);
}

}  // namespace tlb::util
