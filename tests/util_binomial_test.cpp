// Tests for the exact Binomial sampler: both regimes (inversion / BTRS) must
// agree with the analytic mean and variance, respect the support, and match
// each other where their domains overlap. The grouped user-protocol engine's
// correctness rests on this sampler being exact.
#include "tlb/util/binomial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

namespace {

using tlb::util::binomial;
using tlb::util::FixedBinomial;
using tlb::util::Rng;

TEST(BinomialTest, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(binomial(rng, 1, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 1, 1.0), 1u);
}

TEST(BinomialTest, DegenerateEndpointsExact) {
  // p = 1.0 is reachable in production (the user protocol's leave
  // probability clamps to exactly 1), and p = 0 / n = 0 are trivial
  // boundaries. These must be exact for every n, in both the public
  // dispatcher and the raw inversion sampler (regression: the old
  // inversion walk returned 1 for p = 1 because log(1-p) = -inf).
  Rng rng(5);
  for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{7}, std::uint64_t{1000},
                          std::uint64_t{10000000}}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(binomial(rng, n, 1.0), n) << "n=" << n;
      EXPECT_EQ(binomial(rng, n, 0.0), 0u) << "n=" << n;
      EXPECT_EQ(tlb::util::detail::binomial_inversion(rng, n, 1.0), n)
          << "n=" << n;
      EXPECT_EQ(tlb::util::detail::binomial_inversion(rng, n, 0.0), 0u)
          << "n=" << n;
    }
  }
}

TEST(BinomialTest, NearOneAndNearZeroProbabilities) {
  Rng rng(6);
  // p within an ulp of 1: mass is overwhelmingly at n (P(X < n-k) is
  // astronomically small), so every draw must land on n or a hair below.
  const double near_one = 1.0 - 1e-12;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = binomial(rng, 1000, near_one);
    EXPECT_LE(x, 1000u);
    EXPECT_GE(x, 990u);
    const std::uint64_t y =
        tlb::util::detail::binomial_inversion(rng, 1000, near_one);
    EXPECT_LE(y, 1000u);
    EXPECT_GE(y, 990u);
  }
  // Tiny p: draws concentrate at 0 (n*p = 1e-9).
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(binomial(rng, 1000, 1e-12), 1u);
  }
  // 0.999... with a large n: mean n*p ~= 999; stay in a generous window.
  double sum = 0.0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(binomial(rng, 1000, 0.999));
  }
  EXPECT_NEAR(sum / kN, 999.0, 0.5);
}

TEST(BinomialTest, NanProbabilityDrawsNothing) {
  // Regression: NaN fails every ordered guard, so binomial(rng, 10, NaN)
  // used to reach BTRS, whose accept test NaN makes always false, and never
  // returned. It now follows the Rng::bernoulli contract: NaN counts as
  // p = 0, so the answer is 0 and the generator does not move.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(12);
  const std::uint64_t before = rng.state_hash();
  for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{10},
                          std::uint64_t{1000000}}) {
    EXPECT_EQ(binomial(rng, n, kNan), 0u) << "n=" << n;
    EXPECT_EQ(tlb::util::detail::binomial_inversion(rng, n, kNan), 0u)
        << "n=" << n;
    EXPECT_EQ(FixedBinomial(kNan)(rng, n), 0u) << "n=" << n;
  }
  EXPECT_EQ(rng.state_hash(), before);
}

TEST(BinomialTest, InversionUnderflowGuard) {
  // n*log(1-p) < -745 underflows q^n to 0; the raw inversion sampler used
  // to consume "all the mass" and answer n. It must route to BTRS and give
  // the analytic mean instead (n = 10^6, p = 0.01 => mean 10^4).
  Rng rng(7);
  const std::uint64_t n = 1000000;
  const double p = 0.01;
  const int kN = 3000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t x = tlb::util::detail::binomial_inversion(rng, n, p);
    EXPECT_LT(x, 20000u);  // nowhere near n
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / kN, 10000.0, 50.0);
}

TEST(BinomialTest, SupportRespected) {
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_LE(binomial(rng, 17, 0.4), 17u);
  }
}

TEST(BinomialTest, SymmetryInP) {
  // X ~ B(n, p) iff n - X ~ B(n, 1-p); check by comparing moments.
  Rng rng_a(3), rng_b(3);
  const int kN = 100000;
  double mean_a = 0.0, mean_b = 0.0;
  for (int i = 0; i < kN; ++i) {
    mean_a += static_cast<double>(binomial(rng_a, 50, 0.7));
    mean_b += 50.0 - static_cast<double>(binomial(rng_b, 50, 0.3));
  }
  EXPECT_NEAR(mean_a / kN, mean_b / kN, 0.2);
}

struct MomentCase {
  std::uint64_t n;
  double p;
};

class BinomialMomentsTest : public ::testing::TestWithParam<MomentCase> {};

TEST_P(BinomialMomentsTest, MeanAndVarianceMatchAnalytic) {
  const auto [n, p] = GetParam();
  Rng rng(0xb10'0000 + n);
  const int kN = 60000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const auto x = static_cast<double>(binomial(rng, n, p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  const double true_mean = static_cast<double>(n) * p;
  const double true_var = true_mean * (1.0 - p);
  const double se_mean = std::sqrt(true_var / kN);
  EXPECT_NEAR(mean, true_mean, std::max(5.0 * se_mean, 1e-9))
      << "n=" << n << " p=" << p;
  // Variance of the sample variance ~ 2 var^2 / N for near-normal; allow 10%.
  EXPECT_NEAR(var, true_var, std::max(0.1 * true_var, 0.05))
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(MomentCase{5, 0.5},       // tiny n, inversion
                      MomentCase{40, 0.1},      // np = 4, inversion
                      MomentCase{40, 0.9},      // symmetric branch
                      MomentCase{200, 0.02},    // np = 4, inversion at larger n
                      MomentCase{200, 0.3},     // np = 60, BTRS
                      MomentCase{5000, 0.01},   // np = 50, BTRS
                      MomentCase{5000, 0.5},    // fat centre, BTRS
                      MomentCase{100000, 0.002}  // large n, small p
                      ));

TEST(BinomialTest, SamplersAgreeInOverlapRegion) {
  // np around 10-15 is reachable by both; their moments must coincide.
  const std::uint64_t n = 100;
  const double p = 0.12;
  Rng rng_inv(7), rng_btrs(7);
  const int kN = 80000;
  double mean_inv = 0.0, mean_btrs = 0.0;
  for (int i = 0; i < kN; ++i) {
    mean_inv +=
        static_cast<double>(tlb::util::detail::binomial_inversion(rng_inv, n, p));
    mean_btrs +=
        static_cast<double>(tlb::util::detail::binomial_btrs(rng_btrs, n, p));
  }
  mean_inv /= kN;
  mean_btrs /= kN;
  EXPECT_NEAR(mean_inv, 12.0, 0.1);
  EXPECT_NEAR(mean_btrs, 12.0, 0.1);
}

TEST(BinomialTest, ProbabilityHalfExactCoin) {
  // n = 1 must be a fair coin for p = 0.5.
  Rng rng(11);
  int ones = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) ones += binomial(rng, 1, 0.5);
  EXPECT_NEAR(static_cast<double>(ones) / kN, 0.5, 0.01);
}

TEST(BinomialTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(binomial(a, 1000, 0.25), binomial(b, 1000, 0.25));
  }
}

// ---- FixedBinomial: draw-for-draw identity -------------------------------

// The sampler as written before FixedBinomial existed (plus the NaN guard
// above), kept verbatim as the oracle: FixedBinomial and util::binomial must
// reproduce its values *and* its generator consumption exactly, or every
// canonical engine stream would change.
std::uint64_t reference_inversion(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - reference_inversion(rng, n, 1.0 - p);
  const double q = 1.0 - p;
  const double log_q = std::log(q);
  double f = std::exp(static_cast<double>(n) * log_q);
  if (f <= 0.0) return tlb::util::detail::binomial_btrs(rng, n, p);
  double u = rng.uniform01();
  std::uint64_t k = 0;
  const double r = p / q;
  while (u > f) {
    u -= f;
    f *= r * static_cast<double>(n - k) / static_cast<double>(k + 1);
    ++k;
    if (k >= n) return n;
  }
  return k;
}

std::uint64_t reference_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - reference_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return reference_inversion(rng, n, p);
  return tlb::util::detail::binomial_btrs(rng, n, p);
}

/// The counts every p is checked at: 0..2000, the first n with n*p >= 10
/// (where the dispatcher leaves inversion for BTRS), and 10^6 (q^n
/// underflows there for the larger p, so the inversion sampler falls back
/// to BTRS).
std::vector<std::uint64_t> identity_counts(double p) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t n = 0; n <= 2000; ++n) ns.push_back(n);
  const double tail = std::min(p, 1.0 - p);
  if (tail > 0.0) {
    auto n = static_cast<std::uint64_t>(std::min(10.0 / tail, 1e15));
    while (n > 0 && static_cast<double>(n - 1) * tail >= 10.0) --n;
    while (static_cast<double>(n) * tail < 10.0) ++n;
    ns.push_back(n);
  }
  ns.push_back(1000000);
  return ns;
}

const std::vector<double>& identity_probabilities() {
  static const std::vector<double> ps = {
      0.0,  1e-12, 0.01, 0.3, 0.5, std::nextafter(0.5, 1.0), 0.56, 0.99,
      1.0 - 1e-12, 1.0, std::numeric_limits<double>::quiet_NaN()};
  return ps;
}

TEST(FixedBinomialTest, DrawForDrawIdenticalToBinomial) {
  for (const double p : identity_probabilities()) {
    const FixedBinomial fixed(p);
    Rng a(0xf1bed), b(0xf1bed), c(0xf1bed);
    for (const std::uint64_t n : identity_counts(p)) {
      // Two draws per count: the second starts from a moved generator.
      for (int rep = 0; rep < 2; ++rep) {
        const std::uint64_t x = fixed(a, n);
        const std::uint64_t y = binomial(b, n, p);
        const std::uint64_t z = reference_binomial(c, n, p);
        ASSERT_EQ(x, z) << "fixed: p=" << p << " n=" << n;
        ASSERT_EQ(y, z) << "binomial: p=" << p << " n=" << n;
        ASSERT_EQ(a.state_hash(), c.state_hash())
            << "fixed: p=" << p << " n=" << n;
        ASSERT_EQ(b.state_hash(), c.state_hash())
            << "binomial: p=" << p << " n=" << n;
      }
    }
  }
}

TEST(FixedBinomialTest, InversionIdenticalAtEveryCount) {
  // The inversion sampler at any n*p (detail::binomial_inversion), including
  // the q^n-underflow fallback to BTRS at n = 10^6.
  for (const double p : identity_probabilities()) {
    const FixedBinomial fixed(p);
    Rng a(0x1a7e), b(0x1a7e), c(0x1a7e);
    for (const std::uint64_t n : identity_counts(p)) {
      const std::uint64_t x = fixed.inversion(a, n);
      const std::uint64_t y = tlb::util::detail::binomial_inversion(b, n, p);
      const std::uint64_t z = reference_inversion(c, n, p);
      ASSERT_EQ(x, z) << "fixed: p=" << p << " n=" << n;
      ASSERT_EQ(y, z) << "binomial_inversion: p=" << p << " n=" << n;
      ASSERT_EQ(a.state_hash(), c.state_hash()) << "p=" << p << " n=" << n;
      ASSERT_EQ(b.state_hash(), c.state_hash()) << "p=" << p << " n=" << n;
    }
  }
}

}  // namespace
