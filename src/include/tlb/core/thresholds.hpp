#pragma once
// Thresholds: the paper's threshold regimes, and the thresholds an engine
// balances against as one value type.
//
// Regimes (Section 4 / 5.2 / 6.2). The paper gives every resource one
// global threshold T and distinguishes (threshold_value computes them):
//   * above-average:   T = (1+eps)·W/n + w_max   (eps > 0 constant)
//   * tight, resource: T = W/n + 2·w_max          (Theorem 7)
//   * tight, user:     T = W/n + w_max            (Theorem 12)
// Thresholds must be at least the average load; the paper assumes W/n is
// known (computable by diffusion, see core/diffusion.hpp) or given.
//
// Value type. The non-uniform extension (hetero.hpp) gives resource r its
// own T_r. A Thresholds holds either: one value for every resource, or one
// value per resource. Every layer stores, validates and reads thresholds through
// it, so the scalar-or-vector choice is made here and nowhere else:
//
//   * operator[](r) and max() read it (max() is cached);
//   * checked(n, who) is the one validation;
//   * visit(fn) hands a hot loop either a Uniform view (the hoisted
//     scalar, compared against a register) or a PerResource view (the
//     vector's data), both indexed by resource.
//
// A default-constructed Thresholds is unset; engines reject it. The
// header depends only on graph::Node (tasks::TaskSet is only declared), so
// the mem layer can use it too.

#include <cstdint>
#include <vector>

#include "tlb/graph/graph.hpp"

namespace tlb::tasks {
class TaskSet;
}  // namespace tlb::tasks

namespace tlb::core {

/// Which threshold regime to run.
enum class ThresholdKind {
  kAboveAverage,   ///< (1+eps)·W/n + w_max
  kTightResource,  ///< W/n + 2·w_max
  kTightUser,      ///< W/n + w_max
};

/// Human-readable name.
const char* to_string(ThresholdKind kind);

/// Compute the threshold value for the given regime.
/// `eps` is only used by kAboveAverage and must then be > 0.
double threshold_value(ThresholdKind kind, double total_weight, graph::Node n,
                       double w_max, double eps = 0.0);

/// Convenience overload taking the TaskSet.
double threshold_value(ThresholdKind kind, const tasks::TaskSet& tasks,
                       graph::Node n, double eps = 0.0);

class Thresholds {
 public:
  /// visit()'s view of a uniform threshold: the same value for every r.
  struct Uniform {
    double value;
    double operator[](graph::Node) const noexcept { return value; }
  };
  /// visit()'s view of per-resource thresholds.
  struct PerResource {
    const double* values;
    double operator[](graph::Node r) const noexcept { return values[r]; }
  };

  /// Unset: no resource has a threshold yet.
  Thresholds() = default;
  /// One threshold for every resource. Implicit, as is the vector form,
  /// so `cfg.threshold = T` and `cfg.threshold = per_resource` both read
  /// naturally.
  Thresholds(double uniform) noexcept
      : max_(uniform), kind_(Kind::kUniform) {}
  /// per_resource[r] is resource r's threshold.
  Thresholds(std::vector<double> per_resource);

  /// False for a default-constructed value.
  bool is_set() const noexcept { return kind_ != Kind::kUnset; }
  /// True iff one value holds for every resource.
  bool is_uniform() const noexcept { return kind_ == Kind::kUniform; }
  /// True iff set and, per resource, of exactly n entries. O(1); the
  /// values are not looked at.
  bool fits(graph::Node n) const noexcept {
    return kind_ == Kind::kUniform ||
           (kind_ == Kind::kPerResource && values_.size() == n);
  }

  /// Resource r's threshold.
  double operator[](graph::Node r) const noexcept {
    return kind_ == Kind::kPerResource ? values_[r] : max_;
  }
  /// The largest threshold (the uniform one when uniform).
  double max() const noexcept { return max_; }

  /// Returns *this when it fits n resources and every value is finite and
  /// > 0; throws std::invalid_argument naming `who` otherwise.
  const Thresholds& checked(graph::Node n, const char* who) const;

  /// fn(Uniform{...}) or fn(PerResource{...}). Requires is_set().
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (kind_ == Kind::kPerResource) return fn(PerResource{values_.data()});
    return fn(Uniform{max_});
  }

  bool operator==(const Thresholds&) const = default;

 private:
  enum class Kind : std::uint8_t { kUnset, kUniform, kPerResource };

  std::vector<double> values_;  // per resource (kPerResource only)
  double max_ = 0.0;            // the uniform value when kUniform
  Kind kind_ = Kind::kUnset;
};

}  // namespace tlb::core
