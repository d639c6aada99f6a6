#pragma once
// Streaming and batch statistics for experiment aggregation.

#include <cstddef>
#include <vector>

namespace tlb::util {

/// Welford's online mean/variance accumulator. Numerically stable; merging
/// two accumulators (for per-thread partials) uses Chan's parallel update.
class Welford {
 public:
  /// Fold one observation into the accumulator.
  void add(double x) noexcept;
  /// Merge another accumulator (e.g. from a worker thread).
  void merge(const Welford& other) noexcept;

  /// Number of observations folded in so far.
  std::size_t count() const noexcept { return n_; }
  /// Sample mean (0 if empty).
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 if fewer than two observations).
  double variance() const noexcept;
  /// Sample standard deviation.
  double stddev() const noexcept;
  /// Standard error of the mean.
  double stderror() const noexcept;
  /// Half-width of the ~95% normal confidence interval for the mean.
  double ci95_halfwidth() const noexcept { return 1.959964 * stderror(); }
  /// Smallest observation seen (+inf if empty).
  double min() const noexcept { return min_; }
  /// Largest observation seen (-inf if empty).
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Five-number-style summary of a sample, computed in one pass over a copy.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Summarise a sample (sorts a copy; fine for experiment-sized vectors).
Summary summarize(std::vector<double> xs);

/// Linear-interpolation percentile of a *sorted* sample, q in [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Ordinary least squares fit y ≈ a + b·x. Returns {intercept, slope, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

/// Fit y ≈ c · x^e through log-log OLS (all inputs must be positive).
/// Returns {log c as intercept, e as slope, r2 in log space}.
LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Pearson correlation coefficient of two equal-length samples.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

// ---- Law checks -----------------------------------------------------------
// Goodness-of-fit tools for checking that a sampler, or a stream-changing
// optimisation, keeps its law: each returns a p-value, and a check at level
// alpha rejects unless p > alpha. A NaN statistic gives a NaN p-value, which
// fails that check instead of passing it.

/// Kolmogorov's limiting survival function
/// Q_KS(lambda) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), so
/// P(sqrt(n) D_n > lambda) -> Q_KS(lambda). 1 for lambda <= 0.
double kolmogorov_q(double lambda);

/// Two-sample Kolmogorov–Smirnov test.
struct KsResult {
  double d = 0.0;        ///< sup |F_x - F_y| over the pooled sample
  double p_value = 1.0;  ///< asymptotic Kolmogorov p-value
};
/// D and its asymptotic p-value Q_KS((sqrt(N) + 0.12 + 0.11/sqrt(N)) D),
/// N = n m / (n + m) (Stephens' small-sample correction). Ties are fine:
/// on discrete data the test is conservative. Both samples non-empty and
/// NaN-free.
KsResult ks_two_sample(std::vector<double> x, std::vector<double> y);

/// Upper tail of the chi-square distribution with `dof` > 0 degrees of
/// freedom at `x`: Q(dof / 2, x / 2), the regularized upper incomplete
/// gamma function. 1 for x <= 0.
double chi_square_q(double x, double dof);

}  // namespace tlb::util
