#include "tlb/core/threshold.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace tlb::core {

const char* to_string(ThresholdKind kind) {
  switch (kind) {
    case ThresholdKind::kAboveAverage: return "above-average";
    case ThresholdKind::kTightResource: return "tight-resource";
    case ThresholdKind::kTightUser: return "tight-user";
  }
  return "?";
}

double threshold_value(ThresholdKind kind, double total_weight, graph::Node n,
                       double w_max, double eps) {
  if (n == 0) throw std::invalid_argument("threshold_value: n >= 1");
  const double avg = total_weight / static_cast<double>(n);
  switch (kind) {
    case ThresholdKind::kAboveAverage:
      if (!(eps > 0.0) || !std::isfinite(eps)) {
        throw std::invalid_argument(
            "threshold_value: above-average needs eps finite and > 0");
      }
      return (1.0 + eps) * avg + w_max;
    case ThresholdKind::kTightResource:
      return avg + 2.0 * w_max;
    case ThresholdKind::kTightUser:
      return avg + w_max;
  }
  throw std::logic_error("threshold_value: unreachable");
}

double threshold_value(ThresholdKind kind, const tasks::TaskSet& tasks,
                       graph::Node n, double eps) {
  return threshold_value(kind, tasks.total_weight(), n, tasks.max_weight(), eps);
}

double checked_threshold(double threshold, const char* who) {
  // !(x > 0) also catches NaN, which `x <= 0` would wave through.
  if (!std::isfinite(threshold) || !(threshold > 0.0)) {
    throw std::invalid_argument(std::string(who) +
                                ": threshold must be finite and > 0");
  }
  return threshold;
}

std::vector<double> resolve_thresholds(double threshold,
                                       const std::vector<double>& thresholds,
                                       graph::Node n, const char* who) {
  if (thresholds.empty()) {
    return std::vector<double>(n, checked_threshold(threshold, who));
  }
  if (thresholds.size() != n) {
    throw std::invalid_argument(
        std::string(who) + ": thresholds size must equal resource count");
  }
  for (const double t : thresholds) {
    if (!std::isfinite(t) || !(t > 0.0)) {
      throw std::invalid_argument(std::string(who) +
                                  ": all thresholds must be finite and > 0");
    }
  }
  return thresholds;
}

}  // namespace tlb::core
