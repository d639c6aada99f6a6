#include "tlb/core/thresholds.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace tlb::core {

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
