#pragma once
// Non-uniform thresholds — the paper's conclusion names them as future work
// ("models with non-uniform thresholds are certainly conceivable").
//
// The natural source of non-uniform thresholds is heterogeneous resources
// (machines with different speeds, as in Adolphs & Berenbrink [14]): a
// resource with speed s_r should carry a W·s_r/S share of the total weight
// (S = Σ speeds), so its threshold becomes
//     above-average:  (1+ε)·W·s_r/S + w_max
//     tight-resource:       W·s_r/S + 2·w_max
//     tight-user:           W·s_r/S + w_max.
// Every engine takes such a vector as its core::Thresholds (thresholds.hpp):
// assign it to the config's one `threshold` field, as a uniform T would be.
// This header provides the builders and a feasibility check.

#include <vector>

#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::core {

/// speeds[r] = relative processing speed of resource r (> 0).
using SpeedProfile = std::vector<double>;

/// All resources equal — reproduces the uniform model.
SpeedProfile uniform_speeds(graph::Node n);

/// `fast_count` resources of speed `ratio`, the rest of speed 1 (the classic
/// "few big machines" cluster shape).
SpeedProfile two_class_speeds(graph::Node n, graph::Node fast_count,
                              double ratio);

/// Independent uniform speeds in [lo, hi].
SpeedProfile random_speeds(graph::Node n, double lo, double hi,
                           util::Rng& rng);

/// Per-resource thresholds with capacity proportional to speed (see header
/// comment for the exact formulas). Throws if any speed is <= 0.
std::vector<double> speed_proportional_thresholds(const tasks::TaskSet& tasks,
                                                  const SpeedProfile& speeds,
                                                  ThresholdKind kind,
                                                  double eps = 0.0);

/// True iff a balanced state must exist under the thresholds: total
/// guaranteed-acceptance capacity Σ max(T_r − w_max, 0) covers W. (Every
/// resource accepts any task while its load is <= T_r − w_max, so this is a
/// sufficient condition for the protocols to be able to terminate.)
bool thresholds_feasible(const tasks::TaskSet& tasks,
                         const std::vector<double>& thresholds);

}  // namespace tlb::core
