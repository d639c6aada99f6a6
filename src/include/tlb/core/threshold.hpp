#pragma once
// Threshold policies (Section 4 / 5.2 / 6.2).
//
// All resources share one threshold T_r. The paper distinguishes:
//   * above-average:   T = (1+eps)·W/n + w_max   (eps > 0 constant)
//   * tight, resource: T = W/n + 2·w_max          (Theorem 7)
//   * tight, user:     T = W/n + w_max            (Theorem 12)
// Thresholds must be at least the average load; the paper assumes W/n is
// known (computable by diffusion, see core/diffusion.hpp) or given. The
// engines take the value as a core::Thresholds (thresholds.hpp), which
// also carries the per-resource thresholds of the non-uniform extension
// (hetero.hpp).

#include "tlb/graph/graph.hpp"
#include "tlb/tasks/task_set.hpp"

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

}  // namespace tlb::core
