// Tests for the statistics toolkit (Welford, summaries, fits, law checks).
#include "tlb/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace {

using tlb::util::chi_square_q;
using tlb::util::fit_linear;
using tlb::util::fit_power_law;
using tlb::util::ks_two_sample;
using tlb::util::kolmogorov_q;
using tlb::util::pearson;
using tlb::util::percentile_sorted;
using tlb::util::summarize;
using tlb::util::Welford;

TEST(WelfordTest, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(WelfordTest, MatchesDirectComputation) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  Welford w;
  for (double x : xs) w.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(w.mean(), mean, 1e-12);
  EXPECT_NEAR(w.variance(), var, 1e-12);
  EXPECT_EQ(w.min(), 1.0);
  EXPECT_EQ(w.max(), 9.0);
}

TEST(WelfordTest, MergeEqualsSequential) {
  Welford all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(WelfordTest, MergeWithEmptyIsNoop) {
  Welford a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
}

TEST(WelfordTest, Ci95ShrinksWithSamples) {
  Welford small, big;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) big.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), big.ci95_halfwidth());
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_NEAR(percentile_sorted(xs, 0.5), 5.0, 1e-12);
  EXPECT_NEAR(percentile_sorted(xs, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(percentile_sorted(xs, 1.0), 10.0, 1e-12);
}

TEST(SummaryTest, KnownSample) {
  const auto s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_NEAR(s.mean, 3.0, 1e-12);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_NEAR(s.median, 3.0, 1e-12);
}

TEST(SummaryTest, EmptySampleIsSafe) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(FitLinearTest, ExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i - 1.0);
  }
  const auto f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.5, 1e-10);
  EXPECT_NEAR(f.intercept, -1.0, 1e-10);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(FitLinearTest, RejectsDegenerateInput) {
  EXPECT_THROW(fit_linear({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(fit_linear({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(FitPowerLawTest, RecoversExponent) {
  std::vector<double> x, y;
  for (int i = 1; i <= 30; ++i) {
    x.push_back(i);
    y.push_back(3.0 * std::pow(i, 1.7));
  }
  const auto f = fit_power_law(x, y);
  EXPECT_NEAR(f.slope, 1.7, 1e-9);           // the exponent
  EXPECT_NEAR(std::exp(f.intercept), 3.0, 1e-6);  // the constant
}

TEST(FitPowerLawTest, RejectsNonPositive) {
  EXPECT_THROW(fit_power_law({0.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(PearsonTest, PerfectCorrelation) {
  std::vector<double> x, y, z;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 2.0);
    z.push_back(-2.0 * i);
  }
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(KolmogorovTest, KnownAnswers) {
  // The classic critical values: lambda = 1.36 is the 5% point and 1.63
  // the 1% point of the Kolmogorov distribution.
  EXPECT_NEAR(kolmogorov_q(1.36), 0.049, 0.0005);
  EXPECT_NEAR(kolmogorov_q(1.63), 0.0098, 0.0001);
  EXPECT_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_EQ(kolmogorov_q(-1.0), 1.0);
  EXPECT_NEAR(kolmogorov_q(0.5), 0.9639, 0.0001);
  EXPECT_LT(kolmogorov_q(4.0), 1e-12);
  // The two evaluation forms meet at lambda = 1.18.
  EXPECT_NEAR(kolmogorov_q(std::nextafter(1.18, 0.0)), kolmogorov_q(1.18),
              1e-12);
}

TEST(KsTwoSampleTest, IdenticalSamplesGiveZero) {
  const std::vector<double> x = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const auto r = ks_two_sample(x, x);
  EXPECT_EQ(r.d, 0.0);
  EXPECT_EQ(r.p_value, 1.0);
}

TEST(KsTwoSampleTest, DisjointSamplesGiveOne) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(100.0 + i);
  }
  const auto r = ks_two_sample(x, y);
  EXPECT_EQ(r.d, 1.0);
  EXPECT_LT(r.p_value, 1e-9);
  EXPECT_EQ(ks_two_sample(y, x).d, 1.0);
}

TEST(KsTwoSampleTest, KnownStatisticWithTies) {
  // F_x - F_y peaks at 2 (0.5 - 0) and stays there through the shared 3
  // and 4: D = 1/2, and tied values step both CDFs together.
  const auto r = ks_two_sample({1.0, 2.0, 3.0, 4.0}, {3.0, 4.0, 5.0, 6.0});
  EXPECT_EQ(r.d, 0.5);
  // N = 2: lambda = (sqrt(2) + 0.12 + 0.11 / sqrt(2)) / 2.
  const double en = std::sqrt(2.0);
  EXPECT_DOUBLE_EQ(r.p_value, kolmogorov_q((en + 0.12 + 0.11 / en) * 0.5));
  EXPECT_EQ(ks_two_sample({1.0, 1.0, 2.0}, {1.0, 2.0, 2.0}).d, 1.0 / 3.0);
  EXPECT_THROW(ks_two_sample({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(ks_two_sample({1.0, std::nan("")}, {1.0}),
               std::invalid_argument);
}

TEST(ChiSquareTest, KnownAnswers) {
  // Critical values of the chi-square table.
  EXPECT_NEAR(chi_square_q(3.841459, 1.0), 0.05, 1e-6);
  EXPECT_NEAR(chi_square_q(10.827566, 1.0), 0.001, 1e-8);
  EXPECT_NEAR(chi_square_q(18.307038, 10.0), 0.05, 1e-6);
  EXPECT_NEAR(chi_square_q(29.588298, 10.0), 0.001, 1e-8);
  EXPECT_NEAR(chi_square_q(3.940299, 10.0), 0.95, 1e-6);
  // Two degrees of freedom: Q = exp(-x / 2) exactly.
  for (const double x : {0.1, 1.0, 2.0, 7.5, 40.0}) {
    EXPECT_NEAR(chi_square_q(x, 2.0), std::exp(-x / 2.0), 1e-14) << x;
  }
  EXPECT_EQ(chi_square_q(0.0, 3.0), 1.0);
  EXPECT_THROW(chi_square_q(1.0, 0.0), std::invalid_argument);
  // A NaN statistic must fail a p > alpha check, not pass it.
  EXPECT_TRUE(std::isnan(chi_square_q(std::nan(""), 3.0)));
  EXPECT_TRUE(std::isnan(kolmogorov_q(std::nan(""))));
}

}  // namespace
