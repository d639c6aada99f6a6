#include "tlb/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tlb::util {

void Welford::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Welford::merge(const Welford& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Welford::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

double Welford::stderror() const noexcept {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  Welford w;
  for (double x : xs) w.add(x);
  s.mean = w.mean();
  s.stddev = w.stddev();
  s.min = xs.front();
  s.max = xs.back();
  s.p25 = percentile_sorted(xs, 0.25);
  s.median = percentile_sorted(xs, 0.50);
  s.p75 = percentile_sorted(xs, 0.75);
  s.p95 = percentile_sorted(xs, 0.95);
  return s;
}

LinearFit fit_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("fit_linear: need >= 2 equal-length samples");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  LinearFit f;
  const double denom = n * sxx - sx * sx;
  f.slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = y[i] - (f.intercept + f.slope * x[i]);
    ss_res += e * e;
  }
  f.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

LinearFit fit_power_law(const std::vector<double>& x,
                        const std::vector<double>& y) {
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0.0 || y[i] <= 0.0) {
      throw std::invalid_argument("fit_power_law: inputs must be positive");
    }
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
  }
  return fit_linear(lx, ly);
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("pearson: need >= 2 equal-length samples");
  }
  Welford wx, wy;
  for (double v : x) wx.add(v);
  for (double v : y) wy.add(v);
  double cov = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - wx.mean()) * (y[i] - wy.mean());
  }
  cov /= static_cast<double>(x.size() - 1);
  const double denom = wx.stddev() * wy.stddev();
  return denom > 0.0 ? cov / denom : 0.0;
}

double kolmogorov_q(double lambda) {
  if (std::isnan(lambda)) return lambda;
  if (lambda <= 0.0) return 1.0;
  constexpr double kPi = 3.14159265358979323846;
  if (lambda < 1.18) {
    // The alternating series converges slowly here; use the Jacobi theta
    // form 1 - sqrt(2 pi)/lambda sum_{j>=1} exp(-(2j-1)^2 pi^2 / (8 lambda^2)).
    const double t = -kPi * kPi / (8.0 * lambda * lambda);
    double sum = 0.0;
    for (int j = 1; j <= 8; ++j) {
      const double odd = 2.0 * j - 1.0;
      sum += std::exp(odd * odd * t);
    }
    return std::max(0.0, 1.0 - std::sqrt(2.0 * kPi) / lambda * sum);
  }
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-17) break;
    sign = -sign;
  }
  return std::min(1.0, 2.0 * sum);
}

KsResult ks_two_sample(std::vector<double> x, std::vector<double> y) {
  if (x.empty() || y.empty()) {
    throw std::invalid_argument("ks_two_sample: both samples non-empty");
  }
  // NaN equals nothing, so the tie-stepping walk below would never pass it.
  const auto is_nan = [](double v) { return std::isnan(v); };
  if (std::any_of(x.begin(), x.end(), is_nan) ||
      std::any_of(y.begin(), y.end(), is_nan)) {
    throw std::invalid_argument("ks_two_sample: NaN in a sample");
  }
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  const auto nx = static_cast<double>(x.size());
  const auto ny = static_cast<double>(y.size());
  KsResult r;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    // Step both empirical CDFs past the smaller value, ties together.
    const double v = std::min(x[i], y[j]);
    while (i < x.size() && x[i] == v) ++i;
    while (j < y.size() && y[j] == v) ++j;
    r.d = std::max(r.d, std::fabs(static_cast<double>(i) / nx -
                                  static_cast<double>(j) / ny));
  }
  const double en = std::sqrt(nx * ny / (nx + ny));
  r.p_value = kolmogorov_q((en + 0.12 + 0.11 / en) * r.d);
  return r;
}

double chi_square_q(double x, double dof) {
  if (!(dof > 0.0)) throw std::invalid_argument("chi_square_q: dof > 0");
  if (std::isnan(x)) return x;
  if (x <= 0.0) return 1.0;
  const double a = 0.5 * dof;
  const double z = 0.5 * x;
  const double log_prefix = a * std::log(z) - z - std::lgamma(a);
  if (z < a + 1.0) {
    // Series for the lower function P(a, z); Q = 1 - P.
    double term = 1.0 / a;
    double sum = term;
    for (int n = 1; n < 10000; ++n) {
      term *= z / (a + n);
      sum += term;
      if (term < sum * 1e-16) break;
    }
    return std::max(0.0, 1.0 - sum * std::exp(log_prefix));
  }
  // Continued fraction for Q(a, z), modified Lentz evaluation.
  constexpr double kTiny = 1e-300;
  double b = z + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int n = 1; n < 10000; ++n) {
    const double an = -n * (n - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return std::min(1.0, std::exp(log_prefix) * h);
}

}  // namespace tlb::util
