#include "tlb/core/threshold.hpp"

#include <cmath>
#include <stdexcept>

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

}  // namespace tlb::core
