#include "tlb/core/thresholds.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "tlb/tasks/task_set.hpp"

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

Thresholds::Thresholds(std::vector<double> per_resource)
    : values_(std::move(per_resource)), kind_(Kind::kPerResource) {
  if (!values_.empty()) {
    max_ = *std::max_element(values_.begin(), values_.end());
  }
}

const Thresholds& Thresholds::checked(graph::Node n, const char* who) const {
  if (!is_set()) {
    throw std::invalid_argument(std::string(who) + ": no threshold set");
  }
  if (!fits(n)) {
    throw std::invalid_argument(
        std::string(who) + ": thresholds size must equal resource count");
  }
  // !(t > 0) also catches NaN, which `t <= 0` would wave through.
  const auto bad = [](double t) { return !std::isfinite(t) || !(t > 0.0); };
  if (is_uniform() ? bad(max_)
                   : std::any_of(values_.begin(), values_.end(), bad)) {
    throw std::invalid_argument(std::string(who) +
                                ": thresholds must be finite and > 0");
  }
  return *this;
}

}  // namespace tlb::core
