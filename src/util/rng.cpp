#include "tlb/util/rng.hpp"

#include <cmath>

namespace tlb::util {

double Rng::exponential(double rate) noexcept {
  // Inverse CDF; guard against log(0) by nudging u away from 0.
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::bounded_pareto(double alpha, double lo, double hi) noexcept {
  // Inverse-CDF sampling of the truncated Pareto distribution.
  const double u = uniform01();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(x, -1.0 / alpha);
}

}  // namespace tlb::util
