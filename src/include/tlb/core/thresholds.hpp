#pragma once
// The thresholds an engine balances against, as one value type.
//
// The paper gives every resource one global threshold T (Section 4); the
// non-uniform extension (hetero.hpp) gives resource r its own T_r. A
// Thresholds holds either: one value for every resource, or one value per
// resource. Every layer stores, validates and reads thresholds through
// it, so the scalar-or-vector choice is made here and nowhere else:
//
//   * operator[](r) and max() read it (max() is cached);
//   * checked(n, who) is the one validation;
//   * visit(fn) hands a hot loop either a Uniform view (the hoisted
//     scalar, compared against a register) or a PerResource view (the
//     vector's data), both indexed by resource.
//
// A default-constructed Thresholds is unset; engines reject it. The
// header depends only on graph::Node, so the mem layer can use it too.

#include <cstdint>
#include <vector>

#include "tlb/graph/graph.hpp"

namespace tlb::core {

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
